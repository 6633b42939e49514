"""The benchmark's workloads: seeded sweep configurations built through the public API.

Seed 0 reproduces each preset exactly.  Any other seed moves every
interior coupling of the preset grid by up to WOBBLE grid steps, drawn
from ``numpy.random.default_rng(seed)``; the two end points stay put,
so every seed covers the same stated range and the oscillator grid
never passes 0.999 omega.  On the log-approach grid the steps are taken
in k = -log10(1 - g / omega), the coordinate in which it is uniform.
Temperatures and every other field are the preset's.
"""

import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WOBBLE = 0.45  # below 0.5, so neighbouring couplings never swap or meet
FIG2_ISING_G_COUNT = 4
TOY_G_RANGE = (0.5, 0.999)
# one interior coupling: it wobbles over g ~ 0.91..0.9945, where every cell
# converges at n <= 256; a second one, near g = 0.997, would cross the rung
# to n = 512 for some seeds only, and cells_per_s would vary by 20% with the seed
TOY_G_COUNT = 3
# one beta: at beta 20 the g = 0.999 cell climbs to n = 4096, an 18 s eigh on
# its own, and a call must be short enough to repeat several times in a run
TOY_BETAS = (50.0,)


def import_critfish():
    """Import critfish from the checkout's src/ (never an installed copy).

    Raises SystemExit with a message when the checkout holds no sources.
    """
    if not (SRC / "critfish" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no critfish sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import critfish

    return critfish


@dataclass(frozen=True)
class Workload:
    name: str
    log_grid: bool  # couplings follow the log-approach-to-critical spacing
    why: str


# Two further workloads were tried and left out of the end-to-end runs,
# because on a 2-core virtual machine (OpenBLAS 0.3.31) their timings
# spread wider than any useful bound:
# * a worker pool (fig2 inputs, POOL_WORKERS processes), each worker running
#   multithreaded BLAS: 14 to 23 s per call, an IQR of 37% of the median over
#   five seeds.  It runs once, under no bound, in the traced run of each
#   workload (sweep.pool.efficiency and the serial/pool identity check);
# * the fig1 preset on lmg N=20 (1380 tiny, single-threaded cells): its
#   speed followed the host's load, and the IQR over ten seeds ranged from
#   6% to 22% of the median from one batch of runs to the next.
POOL_WORKERS = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig2-ising", False,
            "fig2 preset, ising N=8 (dim 256), 4 couplings: 20 full eigh per cell from "
            "the FD ladders; where exact derivatives, caching and parity blocks show",
        ),
        Workload(
            "toy-adaptive", True,
            "toy adaptive truncation, g 0.5..0.999 log-approach, beta 50: a few huge "
            "eigh up to n=2048, the opposite eigh profile to fig2-ising",
        ),
    )
}


def preset(name):
    """The unseeded preset configuration of a workload."""
    critfish = import_critfish()
    from critfish import cli

    if name == "fig2-ising":
        return cli.fig2_config("ising", 8, g_count=FIG2_ISING_G_COUNT)
    if name == "toy-adaptive":
        return critfish.make_config(
            {
                "model": "toy",
                "size": "adaptive",
                "g_grid": {
                    "min": TOY_G_RANGE[0],
                    "max": TOY_G_RANGE[1],
                    "count": TOY_G_COUNT,
                    "spacing": "log-approach-to-critical",
                },
                "temp_grid": list(TOY_BETAS),
                "temp_mode": "beta",
                "estimators": ["qfi_spectral", "toy_analytic"],
            }
        )
    raise KeyError(name)


def seeded_grid(grid, seed, log_grid, omega=1.0):
    """Move the interior points of an ascending grid; seed 0 returns it unchanged."""
    if seed == 0 or len(grid) < 3:
        return tuple(grid)
    if log_grid:
        coords = -np.log10(1.0 - np.asarray(grid) / omega)
    else:
        coords = np.asarray(grid, dtype=float)
    step = (coords[-1] - coords[0]) / (len(coords) - 1)
    shifts = np.random.default_rng(seed).uniform(-WOBBLE, WOBBLE, len(coords) - 2)
    inner = coords[1:-1] + shifts * step
    if log_grid:
        inner = omega * (1.0 - 10.0 ** -inner)
    return (float(grid[0]), *(float(v) for v in inner), float(grid[-1]))


def config(name, seed):
    """The serial SweepConfig the program receives for one workload and seed."""
    critfish = import_critfish()
    raw = asdict(preset(name))
    raw["g_grid"] = list(seeded_grid(raw["g_grid"], seed, WORKLOADS[name].log_grid, raw["omega"]))
    raw["workers"] = 1
    return critfish.make_config(raw)
