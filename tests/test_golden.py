"""Golden CLI reports: the canonical JSON that ``ring``, ``chain``, ``resolve``
and ``gldim`` print for the shipped corpus must stay byte-identical.

The test only compares; it never rewrites a golden file.  When a report is
meant to change, regenerate the files explicitly and review the diff:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "data")
GOLDEN = os.path.join(HERE, "golden")

RINGS = sorted(
    os.path.splitext(name)[0] for name in os.listdir(os.path.join(DATA, "rings"))
)
MODULES = (("j_over_3_4", "semigroup_3_4"), ("m_over_2_5", "semigroup_2_5"))
# gldim on these takes 3-16 s each; the benchmark's digests cover them.
SLOW_GLDIM = ("semigroup_2_7", "semigroup_2_9", "semigroup_3_5")


def _ring(name):
    return os.path.join(DATA, "rings", name + ".json")


def _cases():
    cases = []
    for ring in RINGS:
        cases.append((f"ring-{ring}", ["ring", "--input", _ring(ring)]))
        cases.append((f"chain-{ring}", ["chain", "--input", _ring(ring)]))
    for module, ring in MODULES:
        path = os.path.join(DATA, "modules", module + ".json")
        cases.append((f"resolve-{module}", ["resolve", "--ring", _ring(ring), "--module", path]))
    for ring in RINGS:
        if ring not in SLOW_GLDIM:
            cases.append((f"gldim-{ring}", ["gldim", "--ring", _ring(ring)]))
    return cases


CASES = _cases()


def _report(argv):
    from endochain.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def _golden_path(name):
    return os.path.join(GOLDEN, name + ".json")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_report(name, argv):
    status, out = _report(argv)
    assert status == 0, out
    with open(_golden_path(name), encoding="utf-8") as f:
        assert out == f.read()


def _record():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in CASES:
        status, out = _report(argv)
        if status != 0:
            raise SystemExit(f"{name}: exit status {status}\n{out}")
        with open(_golden_path(name), "w", encoding="utf-8") as f:
            f.write(out)
        print(f"recorded {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    _record()
