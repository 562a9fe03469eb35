"""Fail unless a perfbench run's last line is a strict JSON result.

    python3 perfbench/run.py ... | tee perfbench.out
    python3 .github/scripts/check_perfbench_result.py < perfbench.out

The line must parse without NaN or Infinity constants, `correct` must be
true, `failed` must be 0, and every metric value must be a finite number,
so that a null or NaN metric fails here rather than in a later comparison
of runs. An op that raises, such as an estimator stopping with
NumericalFaultError, counts as failed without making the run incorrect.
"""
import json
import math
import sys


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def main() -> int:
    lines = sys.stdin.read().strip().splitlines()
    if not lines:
        print("perfbench printed nothing", file=sys.stderr)
        return 1
    result = json.loads(lines[-1], parse_constant=_reject)
    if result.get("correct") is not True:
        print(f"perfbench result is not correct: {lines[-1]}", file=sys.stderr)
        return 1
    if result.get("failed") != 0:
        print(f"perfbench result has failed operations: {lines[-1]}", file=sys.stderr)
        return 1
    bad = {
        name: metric.get("value")
        for name, metric in result["metrics"].items()
        if isinstance(metric.get("value"), bool)
        or not isinstance(metric.get("value"), (int, float))
        or not math.isfinite(metric["value"])
    }
    if bad:
        print(f"perfbench metrics without a finite value: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
