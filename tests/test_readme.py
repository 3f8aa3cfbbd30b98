"""README's quoted outputs, recomputed.

Every fenced block that starts with ``$ pivotk <command>`` is run through
``cli.main`` and must print what the block shows.  Every inline figure is a
row of FIGURES: the README phrase that quotes it, the printed value, and the
call that recomputes it.  The phrase must appear in README (whitespace
folded, so line breaks do not matter), and the call's value, formatted as
README prints it, must equal the printed value.  A misquoted figure fails
the first check and a changed result the second.
"""

from __future__ import annotations

import pathlib
import re
from typing import Callable, NamedTuple

import pytest

from pivotk.cli import main
from pivotk.delay import fluid_delay_report, sawtooth_sweep
from pivotk.geometry import SystemInstance
from pivotk.incentives import EconParams
from pivotk.probability import MCEstimate
from pivotk.simulator import (
    StationaryW,
    estimate_delay,
    estimate_ratchet_full_withhold,
    minimal_sabotage_exhaustive,
    prefix_monotonicity_exhaustive,
)

from conftest import exact_ratchet_tail_gt

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SEED = 20260809  # the default mc.seed


def command_blocks(text: str) -> list[tuple[list[str], str]]:
    """(argv, shown output) of each fenced block whose first line is ``$ pivotk ...``."""
    blocks = re.findall(r"^```\n\$ pivotk ([^\n]*)\n(.*?)^```$", text, re.M | re.S)
    return [(line.split(), shown) for line, shown in blocks]


def folded(text: str) -> str:
    return " ".join(text.split())


def sci(digits: int) -> Callable[[float], str]:
    """x in README's scientific form, exponent without padding: 1.6e-7."""
    return lambda x: re.sub(r"e([+-])0*(\d)", r"e\1\2", f"{x:.{digits}e}")


def fixed(digits: int) -> Callable[[float], str]:
    return lambda x: f"{x:.{digits}f}"


def _fluid():
    return fluid_delay_report(SystemInstance.from_kappa(100, 20, 30), 0.2, 0.5)


def _ratchet_mc(kappa: int) -> float:
    instances = [SystemInstance.from_kappa(100, 20, k) for k in (30, 50)]
    estimates = estimate_ratchet_full_withhold(instances, 0.2, 10_000, SEED)
    return estimates[(30, 50).index(kappa)].frequency


def _ratchet_exact(kappa: int) -> float:
    inst = SystemInstance.from_kappa(100, 20, kappa)
    return float(exact_ratchet_tail_gt(100, 20, 20, [20] * inst.t_star, inst.delta))


def _fee0_sabotage():
    econ = EconParams.normalized(fee=0.0, alpha_v=30.0, gamma=0.9, bounty=12.0)
    report = minimal_sabotage_exhaustive(
        SystemInstance.from_kappa(10, 3, 6), 0.3, econ, paths=25, seed=[SEED, 13]
    )
    return report.violations, report.paths_with_delay_option


class Figure(NamedTuple):
    quote: str  # the README phrase, "{}" where the figure stands
    printed: str
    compute: Callable[[], object]
    fmt: Callable[[object], str]


# every figure at n = 100, m = 20, beta = 0.2 unless its call says otherwise
FIGURES = {
    "fluid-exact": Figure(
        "the fluid exact figure is {}", "1.6e-7", lambda: _fluid().exact_probability, sci(1)
    ),
    "fluid-kl": Figure("its KL figure {}", "1.3e-4", lambda: _fluid().kl_bound, sci(1)),
    "stationary-w": Figure(
        "`StationaryW(0.5)` reads {} (200 000 trials, seed 20260809)",
        "7.45e-4",
        lambda: estimate_delay(
            SystemInstance.from_kappa(100, 20, 30), 0.2, StationaryW(0.5), 200_000, SEED
        ).frequency,
        sci(2),
    ),
    "ratchet-mc-30": Figure(
        "the column reads {} at kappa 30", "0.0557", lambda: _ratchet_mc(30), fixed(4)
    ),
    "q-rat-30": Figure(
        "against `q_rat`'s {} (exact",
        "8.0e-5",
        lambda: sawtooth_sweep(100, 20, 0.2, [30])[0].q_rat,
        sci(1),
    ),
    "ratchet-exact-30": Figure(
        "(exact full-withholding tail {})", "0.0570", lambda: _ratchet_exact(30), fixed(4)
    ),
    "ratchet-mc-50": Figure("and {} at kappa 50", "0.4077", lambda: _ratchet_mc(50), fixed(4)),
    "ratchet-exact-50": Figure(
        "at kappa 50 (exact {})", "0.4173", lambda: _ratchet_exact(50), fixed(4)
    ),
    "wilson-zero-hits": Figure(
        "0 hits in 200 trials gives {}",
        "[0, 0.0188]",
        lambda: MCEstimate.from_counts(0, 200),
        lambda e: f"[{e.ci_low:g}, {e.ci_high:.4f}]",
    ),
    "prefix-cases-json": Figure(
        '"prefix_monotonicity": {{"cases": {}, "violations": 0}}',
        "22992",
        lambda: sum(prefix_monotonicity_exhaustive(k) for k in range(1, 7)),
        str,
    ),
    "prefix-cases": Figure(
        "every one of the {} (sequence, insertion) cases",
        "22 992",
        lambda: sum(prefix_monotonicity_exhaustive(k) for k in range(1, 7)),
        lambda n: f"{n:,}".replace(",", " "),
    ),
    "fee0-sabotage-ties": Figure(
        "({} delay-capable paths out of 25 on n=10, m=3, kappa=6, beta=0.3, "
        "seed [20260809, 13])",
        "6 of 22",
        _fee0_sabotage,
        lambda counts: "{} of {}".format(*counts),
    ),
}


def test_readme_shows_the_two_command_blocks():
    assert [argv for argv, _ in command_blocks(README)] == [["table-main"], ["table-cost"]]


@pytest.mark.parametrize(
    "argv,shown",
    [pytest.param(argv, shown, id=" ".join(argv)) for argv, shown in command_blocks(README)],
)
def test_command_block_prints_what_readme_shows(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


@pytest.mark.parametrize("figure", FIGURES.values(), ids=FIGURES)
def test_readme_quotes_the_figure(figure):
    assert folded(figure.quote.format(figure.printed)) in folded(README)


@pytest.mark.parametrize("figure", FIGURES.values(), ids=FIGURES)
def test_figure_is_what_the_call_prints(figure):
    assert figure.fmt(figure.compute()) == figure.printed
