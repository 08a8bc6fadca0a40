"""Seeded workloads: the list of CLI reports one deck runs, and its input files.

A deck is one pass over a workload's parameter grid.  The seed picks the
surfaces, grams, `--seed` values, `--max-degree` cut-offs and the order;
the grid itself is fixed, so every seed gives the same mix of report sizes
and the metrics of two seeds stay comparable.  A run repeats the deck a
number of times fixed by `--seconds` and the deck's nominal time, so the
parent and a change always do the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import grams

WORKLOADS = ("betti_tables", "certify_sweep", "frobenius_tables", "punctual_search")
TRIANGULAR = (3, 6, 10, 15, 21, 28)
BLOCK_DIMS = (5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 22)
SCRAMBLED_DIMS = (4, 4, 5, 6, 7, 8, 8, 9, 10, 11, 12, 13)


@dataclass
class Plan:
    reports: list[tuple[str, ...]]  # CLI arguments after `hilbk3`, without --json
    nominal_seconds: float          # one deck, untraced, on the 2-core reference host
    reached: tuple[str, ...]        # wrapped functions the deck must call
    dominant: tuple[str, ...]       # library layers predicted to take most self time
    grams: dict[str, grams.Gram] = field(default_factory=dict)  # path in the work dir

    def decks(self, seconds: int) -> int:
        return max(1, round(seconds / self.nominal_seconds))


def betti_tables(rng: random.Random) -> Plan:
    # partitions and cohomology do the work: p(n) strata per Betti table;
    # strata tables add 0.1-0.8 MB of JSON each for the cli layer
    surfaces = [None] + [f"1,{rng.randint(2, 30)},1" for _ in range(2)]
    reports = []
    for k, n in enumerate(range(16, 33)):
        argv = ["betti", "--n", str(n)]
        surface = surfaces[(k + rng.randrange(3)) % 3]
        if surface:
            argv += ["--surface", surface]
        if rng.random() < 1 / 3:
            argv += ["--max-degree", str(rng.randint(2, 4 * n - 2))]
        reports.append(tuple(argv))
    for n in range(12, 23):
        for surface in rng.sample(surfaces, 2):
            reports.append(("strata", "--n", str(n)) + (("--surface", surface) if surface else ()))
    return Plan(reports, 13.0,
                reached=("cli.cmd_betti", "cli.cmd_strata", "partitions.diagrams_of",
                         "partitions.partitions_of", "partitions.codim_diagonal",
                         "partitions.verify_semismall",
                         "cohomology.hilbert_stratum_ledger", "cohomology.diagonal_poincare",
                         "cohomology.symmetric_power_poincare",
                         "cohomology.StratumLedger.total"),
                dominant=("partitions", "cohomology"))


def certify_sweep(rng: random.Random) -> Plan:
    # triangular n take the degree-4 path (period triples, bb_pair, su(2)
    # invariance); the gram's dimension and entry size drive its cost; the
    # other n take the pullback-coefficient path with no elimination
    plan = Plan([], 12.0,
                reached=("cli.cmd_certify", "bb_lattice.certify_no_trianalytic",
                         "partitions.trianalytic_candidates", "partitions.is_triangular",
                         "bb_lattice.random_period_triple", "bb_lattice.bb_pair",
                         "bb_lattice.is_su2_invariant", "bb_lattice.h4_obstruction",
                         "bb_lattice.obstruction_coefficient", "linalg.det",
                         "linalg.congruence_diagonalize"),
                dominant=("bb_lattice",))
    # per triangular n: the default K3 gram, two block sums and two scrambled
    # grams.  The gram ranks are fixed per n (block sums 5..22, scrambled
    # 4..13); the seed draws the blocks and the --seed values.  The scrambled
    # grams and their --seed values are a fixed panel, the same for every
    # workload seed: their cost depends on the lattice and the seed by a
    # factor of a hundred (0.01-3.8 s, the slowest ending in the known
    # failure), and drawing them afresh per seed moved throughput by a
    # quarter between seeds.
    panel = random.Random("certify_sweep:scrambled-panel")
    block_dims, scrambled_dims = list(BLOCK_DIMS), list(SCRAMBLED_DIMS)
    for n in TRIANGULAR:
        for family in ("k3", "block", "block", "scrambled", "scrambled"):
            source = panel if family == "scrambled" else rng
            argv = ("certify", "--n", str(n), "--seed", str(source.randrange(10 ** 6)))
            if family != "k3":
                gram = (grams.scrambled(panel, scrambled_dims.pop()) if family == "scrambled"
                        else grams.random_block_sum(rng, block_dims.pop()))
                path = f"gram{len(plan.grams):02d}.json"
                plan.grams[path] = gram
                argv += ("--gram", path)
            plan.reports.append(argv)
    # the other n read no gram: only the degree-4 path builds the lattice
    for n in range(2, 31):
        if n not in TRIANGULAR:
            plan.reports.append(("certify", "--n", str(n), "--seed", str(rng.randrange(10 ** 6))))
    return plan


FROBENIUS_CELLS = tuple((d, n) for d in range(2, 7) for n in range(2, 5)
                        if (d, n) not in ((5, 4), (6, 3), (6, 4)))
FROBENIUS_LARGE = ((4, 4), (5, 3))            # 2-5 s each, run once
FROBENIUS_MEDIUM = ((3, 4), (4, 3), (6, 2))    # about 0.5 s each, run three times


def frobenius_tables(rng: random.Random) -> Plan:
    # Echelon elimination in the build and FrobeniusAlgebra.multiply in the
    # associativity check do the work; no partitions are enumerated
    plan = Plan([], 19.0,
                reached=("cli.cmd_frobenius", "frobenius.build_algebra",
                         "frobenius.harmonic_basis", "frobenius.FrobeniusAlgebra.multiply",
                         "frobenius.FrobeniusAlgebra.check_pairing_nondegenerate",
                         "frobenius.FrobeniusAlgebra.check_associative",
                         "linalg.Echelon.add", "linalg.Echelon.reduce", "linalg.nullspace",
                         "linalg.det"),
                dominant=("linalg", "frobenius"))
    # the small cells run twice; the medium cells are the nine slowest after
    # the large ones, so the tail percentile lands on them, not on a small cell
    cells = [c for c in FROBENIUS_CELLS for _ in range(
        1 if c in FROBENIUS_LARGE else 3 if c in FROBENIUS_MEDIUM else 2)]
    for dimv, n in cells:
        path = f"gram{len(plan.grams):02d}.json"
        kind = rng.choice(("identity", "diagonal", "rational"))
        plan.grams[path] = grams.frobenius_gram(kind, dimv, rng)
        plan.reports.append(("frobenius", "--dimv", str(dimv), "--n", str(n), "--gram", path))
    return plan


def punctual_search(rng: random.Random) -> Plan:
    # the staircase scan over all p(i) partitions and the 2^N support sweep;
    # the seed only orders the grid
    reports = [("punctual", "--i", str(i)) for i in range(20, 46)]
    reports += [("ideals", "--N", str(n)) for n in range(2, 13)]
    return Plan(reports, 16.0,
                reached=("cli.cmd_punctual", "cli.cmd_ideals",
                         "invariant_ideals.punctual_fixed_points",
                         "invariant_ideals.classify_invariant_ideals",
                         "invariant_ideals.irreducibility_certificate",
                         "invariant_ideals.MonomialIdeal.quotient_monomials",
                         "partitions.partitions_of", "partitions.is_triangular"),
                dominant=("invariant_ideals", "partitions"))


BUILDERS = {
    "betti_tables": betti_tables,
    "certify_sweep": certify_sweep,
    "frobenius_tables": frobenius_tables,
    "punctual_search": punctual_search,
}


def build(workload: str, seed: int) -> Plan:
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    plan = BUILDERS[workload](rng)
    rng.shuffle(plan.reports)
    return plan
