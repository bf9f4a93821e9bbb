#!/usr/bin/env python3
"""Benchmark the compiled arithmetic kernel against the pure-Python one.

Runs each workload in this process, then re-runs them in a subprocess with
WEILDESCENT_PURE=1 (kernel selection happens at import time), and prints a
comparison table.

    python benchmarks/bench_kernel.py
"""

import json
import os
import random
import subprocess
import sys
import time


def workload_kernel_mulrem():
    "Raw kernel: 60k degree-6 integer poly products reduced mod Phi_7."
    from weildescent._kernel import zpoly_mul, zpoly_rem
    from weildescent.fields import cyclotomic_poly

    mod = list(cyclotomic_poly(7))
    rng = random.Random(0)
    polys = [[rng.randint(-99, 99) for _ in range(6)] for _ in range(200)]
    t0 = time.perf_counter()
    for _ in range(300):
        for a in polys:
            zpoly_rem(zpoly_mul(a, a), mod)
    return time.perf_counter() - t0


def workload_cyclo_matmul():
    "200 products of the same two fixed 9 x 9 matrices over Q(zeta_3)."
    from weildescent.fields import RATIONAL, field_make
    from weildescent.linalg import Matrix

    K = field_make(RATIONAL, 3)
    rng = random.Random(1)

    def fixed():
        return Matrix.from_fn(
            K, 9, 9, lambda i, j: K.from_coeffs([rng.randint(-5, 5), rng.randint(-5, 5)])
        )

    a, b = fixed(), fixed()
    t0 = time.perf_counter()
    for _ in range(200):
        a * b  # entries stay the same size: no coefficient growth across products
    return time.perf_counter() - t0


def workload_trace_sweep_q7():
    "Full omega~ sweep over Sp(2, F_7): 336 products of 7x7 over Q(zeta_7)."
    from weildescent.descent import build_weil
    from weildescent.weil import trace_values

    _, _, rep = build_weil(7, 1, 1)
    t0 = time.perf_counter()
    trace_values(rep, 10**5)
    return time.perf_counter() - t0


WORKLOADS = {
    "kernel mul+rem (Phi_7)": workload_kernel_mulrem,
    "9x9 matmul over Q(zeta_3)": workload_cyclo_matmul,
    "trace sweep Sp(2,F_7)": workload_trace_sweep_q7,
}


def run_all():
    return {name: fn() for name, fn in WORKLOADS.items()}


def main():
    if os.environ.get("WEILDESCENT_PURE") == "1":
        print(json.dumps(run_all()))
        return
    from weildescent import COMPILED

    if not COMPILED:
        print("compiled kernel not available; timing the pure kernel only")
        for name, secs in run_all().items():
            print(f"  {name:<28} {secs:8.3f}s")
        return
    compiled = run_all()
    env = dict(os.environ, WEILDESCENT_PURE="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    pure = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{'workload':<28} {'compiled':>10} {'pure':>10} {'speedup':>9}")
    for name in WORKLOADS:
        c, p = compiled[name], pure[name]
        print(f"{name:<28} {c:9.3f}s {p:9.3f}s {p / c:8.2f}x")


if __name__ == "__main__":
    main()
