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


def _ring(name):
    return os.path.join(DATA, "rings", name + ".json")


# rings in golden/rings with ring, chain and gldim cases, kept out of
# data/rings because several tests iterate over that directory and pin its
# counts.  End(m) of the three-branch tacnode_line has the atoms (1,) and
# (0, 2), so its chain labels pin the (size, branches) order of the atoms
EXTRA_RINGS = ("tacnode_line",)

# (golden name, module, ring file); the GF(32003) <3,4>, kept out of
# data/rings, is no input of the ring, chain and gldim cases
MODULES = (
    ("resolve-j_over_3_4", "j_over_3_4", _ring("semigroup_3_4")),
    ("resolve-m_over_2_5", "m_over_2_5", _ring("semigroup_2_5")),
    ("resolve-m_frac_over_2_5", "m_frac_over_2_5", _ring("semigroup_2_5")),
    ("resolve-m_over_cusp_line", "m_over_cusp_line", _ring("cusp_line")),
    # length 2: the only resolve golden that reaches exactness under Hom at
    # an interior term, C_0
    ("resolve-m_over_3_5", "m_over_3_5", _ring("semigroup_3_5")),
    (
        "resolve-j_over_3_4-gf32003",
        "j_over_3_4",
        os.path.join(GOLDEN, "rings", "semigroup_3_4-gf32003.json"),
    ),
)


def _cases():
    cases = []
    for ring in RINGS:
        cases.append((f"ring-{ring}", ["ring", "--input", _ring(ring)]))
        cases.append((f"chain-{ring}", ["chain", "--input", _ring(ring)]))
    for ring in EXTRA_RINGS:
        path = os.path.join(GOLDEN, "rings", ring + ".json")
        cases.append((f"ring-{ring}", ["ring", "--input", path]))
        cases.append((f"chain-{ring}", ["chain", "--input", path]))
        cases.append((f"gldim-{ring}", ["gldim", "--ring", path]))
    for name, module, ring in MODULES:
        path = os.path.join(DATA, "modules", module + ".json")
        cases.append((name, ["resolve", "--ring", ring, "--module", path]))
    for ring in RINGS:
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
