import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from symilp import lpcore, symdetect
from symilp.instances import HtcParams, gen_hypertruncated_cube
from symilp.model import normalize

from corpus import build_corpus


@pytest.fixture(scope="session")
def ex61():
    """The 3x3 cyclic instance: x1+2x2 <= 3, x2+2x3 <= 3, 2x1+x3 <= 3."""
    return normalize(
        [(1, 2, 0, 3), (0, 1, 2, 3), (2, 0, 1, 3)], [1, 1, 1], name="ex61"
    )


@pytest.fixture(scope="session")
def htc6():
    return gen_hypertruncated_cube(HtcParams(6, 2, Fraction(1, 2)))


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def cyc4():
    """The 4-cycle orbit of x1 + 2x2 <= 3: cyclic but not alternating."""
    rows = []
    row = (1, 2, 0, 0)
    for _ in range(4):
        rows.append(row + (3,))
        row = row[-1:] + row[:-1]
    return normalize(rows, [1, 1, 1, 1], name="cyc4")


@pytest.fixture(scope="session")
def v4():
    """The V4-orbit of (1, 2, 3, 0) <= 4 in the box 0 <= x <= 2.

    Its group is the Klein four-group {id, (12)(34), (13)(24), (14)(23)}:
    transitive, with no 4-cycle, no 3-cycle and no transposition.
    """
    v4 = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    rows = [tuple((1, 2, 3, 0)[g[j] - 1] for j in range(4)) + (4,) for g in v4]
    for j in range(4):
        e = tuple(int(i == j) for i in range(4))
        rows += [e + (2,), tuple(-v for v in e) + (0,)]
    return normalize(rows, [1, 1, 1, 1], name="v4")


@pytest.fixture
def tableau_columns(monkeypatch):
    """The column count of every simplex tableau built in the test."""
    columns = []
    tableau = lpcore._Tableau.__init__

    def counting(self, lp):
        columns.append(lp.n)
        tableau(self, lp)

    monkeypatch.setattr(lpcore._Tableau, "__init__", counting)
    return columns


@pytest.fixture
def detect_calls(monkeypatch):
    """The argument tuples of every symdetect.detect call in the test."""
    calls = []
    detect = symdetect.detect

    def counting(*args, **kwargs):
        calls.append(args)
        return detect(*args, **kwargs)

    monkeypatch.setattr(symdetect, "detect", counting)
    return calls
