"""Fault matrix for the exact quotient layer.

Each case breaks one law where the check battery reads it, runs
`verify --m 2..4 --n 2..7 --size-cap 1` (quotient-level checks only) and
pins the exit status and the set of failing check names, with the pair
index `i=` folded.  A case that exits 0 is a fault no check catches: a
check that closes the gap flips its row.
"""

import re

import pytest

from zdspectra import cli, quotient, spectra
from zdspectra.quotient import QuotientMatrix

ARGV = ["verify", "--m", "2..4", "--n", "2..7", "--size-cap", "1"]
FAILURE_LINE = re.compile(r"  m=\d+ n=\d+: (.*?)(?: \(residual [^)]*\))?(?: - .*)?$")


def _last_entry_plus_one(rows):
    rows = [list(row) for row in rows]
    rows[-1][-1] += 1
    return tuple(map(tuple, rows))


def _builder(name):
    def fault(real):
        def built(m, n):
            q = real(m, n)
            return QuotientMatrix(q.kind, q.m, q.n, _last_entry_plus_one(q.entries))

        return built

    return spectra, name, fault


def _walk(name):
    return cli, name, lambda real: lambda *args: _last_entry_plus_one(real(*args))


def _h0_plus_one(real):
    def hs(m, n):
        h = real(m, n)
        return (h[0] + 1,) + h[1:]

    return hs


def _w0_doubled(real):
    # the rows of the walk factor read the weight list when they are built
    def factor(m, n, kind):
        fs, weights, rows = real(m, n, kind)
        weights[0] *= 2
        return fs, weights, rows

    return factor


def _negated(real):
    return lambda *args: -real(*args)


def _swapped(real):
    return lambda m, n: real(m, n)[::-1]


def _sign_flipped(real):
    return lambda *args: tuple(-x for x in real(*args))


DEGREE_P, DEGREE_Q = (f"row sums follow the degree law ({t})" for t in "PQ")
WALK_P, WALK_Q = (f"walk routes agree ({t})" for t in "PQ")
RANK_Q = "walk rank equals n-1 (Q)"
DET_P, DET_Q = (f"determinant routes agree ({t})" for t in "PQ")
ANNIHILATION = "pair power i=* annihilates the bipartite quotient"

# name: (module the battery reads it from, attribute, fault of the real
# function, exit status, failing checks)
FAULTS = {
    "build_p entry +1":
        (*_builder("build_p"), 1, {DEGREE_P, WALK_P, DET_P}),
    "build_q entry +1":
        (*_builder("build_q"), 1, {DEGREE_Q, WALK_Q, DET_Q, ANNIHILATION}),
    "walk_matrix_closed_p entry +1":
        (*_walk("walk_matrix_closed_p"), 1, {WALK_P}),
    "walk_matrix_closed_q entry +1":
        (*_walk("walk_matrix_closed_q"), 1, {WALK_Q}),
    "walk_matrix_iterative entry +1":
        (*_walk("walk_matrix_iterative"), 1, {WALK_P, WALK_Q, DET_P, DET_Q, RANK_Q}),
    "h0 +1":
        (quotient, "h_coefficients", _h0_plus_one, 1, {WALK_P}),
    "w0 doubled":
        (quotient, "_walk_factor", _w0_doubled, 1, {WALK_P, WALK_Q, DET_P, DET_Q}),
    # only the elimination route of the determinant catches this one
    "det_walk_formula negated":
        (cli, "det_walk_formula", _negated, 1, {DET_P, DET_Q}),
    # a gap: only the predicted groups' `exact` labels move
    "pair_powers phi and xi swapped":
        (spectra, "pair_powers", _swapped, 0, set()),
    # equivalent: a zero determinant stays zero
    "_det_shifted sign flipped":
        (spectra, "_det_shifted", _sign_flipped, 0, set()),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_caught_by_exactly_these_checks(capsys, monkeypatch, fault):
    module, name, wrap, code, caught = FAULTS[fault]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    got = cli.main(ARGV)
    out = capsys.readouterr().out
    failing = set()
    if "failures:\n" in out:
        for line in out.split("failures:\n", 1)[1].splitlines():
            failing.add(re.sub(r"i=\d+", "i=*", FAILURE_LINE.match(line).group(1)))
    assert (got, failing) == (code, caught)


def test_the_phi_xi_swap_moves_only_exact_labels(monkeypatch):
    # The uncaught swap is a real fault: the predicted values and
    # multiplicities stay put, and 12 of the `exact` labels at (3,5) move.
    clean = spectra.predicted_spectrum(3, 5)
    monkeypatch.setattr(spectra, "pair_powers", _swapped(spectra.pair_powers))
    swapped = spectra.predicted_spectrum(3, 5)
    moved = 0
    for role in cli.ROLES:
        for a, b in zip(clean.groups(role), swapped.groups(role)):
            assert a[:3] == b[:3]
            moved += a[3] != b[3]
    assert moved == 12
