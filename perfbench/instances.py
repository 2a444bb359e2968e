"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and independent of the package under test:
the benchmark generates the inputs, and the program only ever receives the
generated points, density sources and boundary values.  The same seed
always gives the same instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The non-trivial expression pair of the roadmap baseline.  Its minimizer is
# not the chord, so a descent at a fixed budget does real solver work.
EXPR_PAIR = (("expr", "dy^2 + y^2 + sin(t)*y"), ("expr", "dy^2 + 1"))
# The closed-form pair: same solver and variational code, no dual numbers.
CATALOG_PAIR = (("catalog", "kinetic_minus_potential(2)"), ("catalog", "dy_squared"))


@dataclass(frozen=True)
class Instance:
    """One variational problem as generated data.

    ``delta`` and ``nabla`` are ``(kind, source)`` pairs, kind being
    ``"expr"`` (parsed expression) or ``"catalog"`` (closed form).
    ``bounds`` and ``resolution`` are only used by the brute-force oracle.
    """

    label: str
    points: np.ndarray
    delta: tuple[str, str]
    nabla: tuple[str, str]
    alpha: float = 0.0
    beta: float = 1.0
    bounds: tuple[float, float] = (0.0, 0.0)
    resolution: int = 0

    @property
    def n(self) -> int:
        return int(self.points.size)


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream per (seed, instance index)."""
    return np.random.default_rng([seed, index])


def unit_scale_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points with gaps 10^U(-3, 1), rescaled so they span [0, 1].

    The rescaling keeps instances well-posed.  Raw gaps of that size (as
    ``verify-identities`` draws them) put t up to ~150, where the catalog
    pair ``kinetic_minus_potential(2)`` / ``dy_squared`` is unbounded below
    and the descent drifts to J ~ -1e256 (see README.md, "Known defects").
    """
    gaps = 10.0 ** rng.uniform(-3.0, 1.0, n - 1)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) / float(np.sum(gaps))
    pts[-1] = 1.0
    return pts


def descent_instances(pair, n: int, seeded: int, seed: int) -> list[Instance]:
    """The uniform reference instance, then ``seeded`` non-uniform ones.

    The reference does not depend on the seed, so its accuracy compares like
    with like between commits; the seeded scales vary the graininess.
    """
    delta, nabla = pair
    out = [Instance("uniform", np.linspace(0.0, 1.0, n), delta, nabla)]
    for i in range(seeded):
        pts = unit_scale_points(instance_rng(seed, i), n)
        out.append(Instance(f"seeded-{i}", pts, delta, nabla))
    return out


# Resolution per interior-point count: fine enough that the oracle's grid
# error stays well inside the 1e-4 relative J rule of acceptance criterion 8,
# and cheap enough that a round of oracle calls takes about a second.
ORACLE_RESOLUTION = {1: 201, 2: 61, 3: 25}
# Half-width of the oracle's search box around the boundary values' range.
ORACLE_MARGIN = 0.5


def oracle_instances(seed: int) -> list[Instance]:
    """A fixed reference instance, then seeded ones in the criterion-8 style.

    The seeded set always holds 1, 2 and 3 interior points, each once with
    expression densities (dual numbers for partials) and once with catalog
    densities, so the mix of costs in a round does not depend on the seed.
    Gaps of 0.5..1.5 and small coefficients keep every factor positive.
    """
    out = [
        Instance(
            "reference",
            np.array([0.0, 0.4, 1.1, 2.0]),
            *EXPR_PAIR,
            alpha=0.0,
            beta=1.0,
            bounds=(-ORACLE_MARGIN, 1.0 + ORACLE_MARGIN),
            resolution=ORACLE_RESOLUTION[2],
        )
    ]
    index = 0
    for interior in (1, 2, 3):
        for kind in ("expr", "catalog"):
            rng = instance_rng(seed, index)
            index += 1
            gaps = rng.uniform(0.5, 1.5, interior + 1)
            pts = np.concatenate(([0.0], np.cumsum(gaps)))
            c = float(rng.uniform(0.1, 0.5))
            if kind == "expr":
                delta = ("expr", f"dy^2 + {c!r}*y^2 + 0.2*sin(y) + 1")
                nabla = ("expr", f"dy^2 + {c!r}")
            else:
                # omega below pi / 6 keeps the delta factor positive definite
                # on spans up to 6.
                delta = ("catalog", f"kinetic_minus_potential({0.5 * c!r})")
                nabla = ("catalog", "dy_squared")
            alpha, beta = (float(x) for x in rng.uniform(-0.5, 0.5, 2))
            lo, hi = min(alpha, beta), max(alpha, beta)
            out.append(
                Instance(
                    f"{kind}-{interior}i",
                    pts,
                    delta,
                    nabla,
                    alpha=alpha,
                    beta=beta,
                    bounds=(lo - ORACLE_MARGIN, hi + ORACLE_MARGIN),
                    resolution=ORACLE_RESOLUTION[interior],
                )
            )
    return out


def identity_case(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points and two value vectors, drawn as ``verify-identities`` draws a case."""
    n = int(rng.integers(5, 51))
    gaps = 10.0 ** rng.uniform(-3.0, 1.0, n - 1)
    start = float(rng.uniform(-10.0, 10.0))
    pts = start + np.concatenate(([0.0], np.cumsum(gaps)))
    return pts, rng.standard_normal(n), rng.standard_normal(n)
