"""The benchmark's workloads: one descriptor and one fixed list of calls each.

Every descriptor has a single-valued clock knob: ``run_campaign`` records
the first clock value for every result, so a multi-valued clock would fail
the clock check on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

LAT_LUT = ("latency", "lut")
LAT_LUT_FF = ("latency", "lut", "ff")


@dataclass(frozen=True)
class Eval:
    strategy: str
    budget: int
    objectives: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    csd_text: str
    # limits of the resumed run_campaign calls on one store
    campaign_limits: tuple[int, ...]
    objective_sets: tuple[tuple[str, ...], ...]
    evals: tuple[Eval, ...]
    cli_limit: int
    cli_budget: int
    # times each stage of STAGES runs per cycle (see Lifecycle.cycle)
    repeats: dict[str, int]


# The stages that follow the campaign: a set-up on a fresh store, analysis,
# the strategy evaluations, export with import, and the CLI pass.
STAGES = ("setup", "analyze", "eval", "export", "cli")


# 7 shared x 7 x 8 x 12 = 4704 points, bind group "f".
CAMPAIGN_CSD = """\
resource;fft;buf;{RAM_2P_BRAM}
array_partition;fft;buf;1;{cyclic};{1->64,pow_2}@bind_f
array_partition;fft;tw;1;{block};{1->64,pow_2}
array_partition;fft;out;1;{cyclic};{1->128,pow_2}
unroll;fft;stage;{1->64,pow_2}@bind_f
unroll;fft;butterfly;{1,2,3,4,5,6,7,8,10,12,14,16}
clock;{10}
"""

# 7 x 7 x 12 x 4 x 8 x 2 = 37632 points, divisor range, no bind group.
SPACE_LARGE_CSD = """\
resource;gemm;a;{RAM_1P_BRAM}
array_partition;gemm;a;1;{cyclic};{1->64,pow_2}
array_partition;gemm;b;2;{block};{1->64,pow_2}
unroll;gemm;k;{1->72,div}
unroll;gemm;j;{1,2,4,8}
unroll;gemm;i;{1->128,pow_2}
unroll;gemm;t;{1,2}
clock;{10}
"""

# 7 x 6 x 24 x 2 = 2016 points, 1512 distinct objective vectors. Unroll
# factors 1-24 give many distinct unroll products, so the pairwise 3-D Pareto
# test scans far before it meets each point's dominator.
STRATEGY_REPLAY_CSD = """\
resource;spmv;val;{RAM_2P_LUTRAM}
array_partition;spmv;val;1;{cyclic};{1->64,pow_2}
array_partition;spmv;vec;1;{block};{1,3,9,27,81,243}
unroll;spmv;row;{1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24}
unroll;spmv;acc;{1,2}
inline;spmv;dot;{off}
clock;{8}
"""

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="campaign",
            csd_text=CAMPAIGN_CSD,
            campaign_limits=(588,) * 8,
            objective_sets=(LAT_LUT,),
            evals=(Eval("random", 50, LAT_LUT),) * 3,
            cli_limit=20,
            cli_budget=10,
            repeats={"setup": 1, "analyze": 3, "eval": 2, "export": 1, "cli": 1},
        ),
        Workload(
            name="space-large",
            csd_text=SPACE_LARGE_CSD,
            campaign_limits=(1000, 1000),
            objective_sets=(LAT_LUT,),
            evals=(Eval("random", 50, LAT_LUT), Eval("greedy", 1000, LAT_LUT)),
            cli_limit=20,
            cli_budget=10,
            repeats={"setup": 1, "analyze": 4, "eval": 2, "export": 1, "cli": 1},
        ),
        Workload(
            name="strategy-replay",
            csd_text=STRATEGY_REPLAY_CSD,
            campaign_limits=(336,) * 6,
            objective_sets=(LAT_LUT, LAT_LUT_FF),
            evals=(
                Eval("random", 100, LAT_LUT),
                Eval("random", 1008, LAT_LUT),
                Eval("greedy", 504, LAT_LUT),
                Eval("greedy", 1008, LAT_LUT),
                Eval("random", 504, LAT_LUT_FF),
                Eval("greedy", 1008, LAT_LUT_FF),
            ),
            cli_limit=20,
            cli_budget=10,
            repeats={"setup": 3, "analyze": 1, "eval": 1, "export": 2, "cli": 3},
        ),
    ]
}
