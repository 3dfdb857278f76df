"""Print the package's tangles next to the 50-digit reference at chosen points.

    python3 bench/compare.py 1000,500,0.9 1000,3,0.99

Run from the repository root; the package is imported from src/.
"""

import sys
from pathlib import Path

from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dicketangle import DickeParams, tangle_record  # noqa: E402
from reference import record  # noqa: E402


def compare(n: int, k: int, a: float) -> None:
    ref = record(n, k, a)
    rec = tangle_record(DickeParams(n, k, a))
    print(f"(N={n}, k={k}, a={a!r})")
    for name in ("c1_sq", "c2_sq", "n2", "tau", "xi"):
        got, want = getattr(rec, name), getattr(ref, name)
        err = abs(mp.mpf(got) - want)
        rel = err / abs(want) if want != 0 else mp.inf
        print(
            f"  {name:6s} package {got: .17e}  reference {mp.nstr(want, 20): >28s}"
            f"  abs err {mp.nstr(err, 3):>9s}  rel err {mp.nstr(rel, 3)}"
        )


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: compare.py N,k,a [N,k,a ...]")
    for arg in sys.argv[1:]:
        n_text, k_text, a_text = arg.split(",")
        compare(int(n_text), int(k_text), float(a_text))
