"""The benchmark's workloads: each is a CLI command on a config written from the seed.

The CLI only ever sees the files written here; the seed becomes `[mc] seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20250809  # the acceptance campaign's master seed


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "mc" or "limit"
    why: str
    full: dict              # [mc] settings at benchmark scale
    smoke: dict             # [mc] settings for the tiny smoke mode
    sections: str           # every other section of the config
    # A design drawn once at DEFAULT_SEED and passed as an explicit matrix, so
    # that the seed varies the noise only: with a design redrawn per seed the
    # work per fit moved by +-17% between seeds.
    frozen_design: dict | None = None

    def mc_settings(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full

    def ops_per_command(self, smoke: bool) -> int:
        """Fits (mc) or limit draws (limit) one command performs."""
        if self.command == "limit":
            return LIMIT_DRAWS
        s = self.mc_settings(smoke)
        return s["replications"] * len(s["n_grid"])

    def write_config(self, directory: Path, seed: int, smoke: bool) -> Path:
        """Write the config (and the frozen design, if any) into `directory`."""
        s = self.mc_settings(smoke)
        sections = self.sections
        if self.frozen_design is not None:
            (n,) = s["n_grid"]
            design = directory / "design.csv"
            design.write_text(frozen_design_csv(self.frozen_design, n), encoding="utf-8")
            sections = sections.replace("{design_file}", str(design))
        lines = [sections.strip(), "", "[mc]", f"seed = {seed}"]
        if self.command == "mc":
            lines.append("n_grid = " + ", ".join(str(n) for n in s["n_grid"]))
            lines.append(f"replications = {s['replications']}")
        path = directory / f"{self.name}.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def frozen_design_csv(spec: dict, n: int) -> str:
    from bridgelab.model import DesignSpec, generate_design
    from bridgelab.montecarlo import design_seed
    from bridgelab.util import format_float

    X = generate_design(DesignSpec(**spec), n, design_seed(DEFAULT_SEED, n))
    return "\n".join(",".join(format_float(v) for v in row) for row in X) + "\n"


LIMIT_DRAWS = 10_000  # fixed by the CLI's `limit` command

SPARSE = Workload(
    name="sparse-campaign",
    command="mc",
    why="acceptance sparse config, p=2 bridge gamma=0.5: time goes to the bridge root find in the prox",
    full={"replications": 200, "n_grid": (50, 200, 800, 3200)},
    smoke={"replications": 100, "n_grid": (50, 200)},
    sections="""
[model]
p0 = 1
rho0 = 1.0
design = standardized-orthonormal
noise = gaussian
sigma = 1.0

[penalty]
family = bridge
gamma = 0.5

[schedule]
c = 1.0
e = 0.6
""",
)

WIDE = Workload(
    name="wide-scad",
    command="mc",
    why="p=8 SCAD on one frozen unit-variance random design: 63 starts x ~6 sweeps of closed-form prox per fit, no root finds",
    full={"replications": 100, "n_grid": (800,)},
    smoke={"replications": 100, "n_grid": (200,)},
    sections=f"""
[model]
p0 = 4
rho0 = 1.0, -1.0, 1.5, 2.0
design = explicit-matrix
design_file = {{design_file}}
noise = gaussian
sigma = 1.0

[penalty]
family = scad
a = 3.7

[schedule]
c = 1.0
e = -0.25
""",
    frozen_design={"kind": "bounded-random-frozen", "p": 8, "bound": math.sqrt(24.0)},
)

LIMIT = Workload(
    name="limit-standard",
    command="limit",
    why="standard-regime limit law: 10k argmin draws, all in asymptotics and the power prox",
    full={},
    smoke={},
    sections="""
[model]
p0 = 1
rho0 = 1.0
design = standardized-orthonormal
noise = gaussian
sigma = 1.0

[penalty]
family = bridge
gamma = 0.5

[schedule]
c = 1.0
e = 0.25
""",
)

WORKLOADS = {w.name: w for w in (SPARSE, WIDE, LIMIT)}
