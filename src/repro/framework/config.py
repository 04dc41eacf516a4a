"""One run configuration shared by every entry point.

``kahrisma run``, serve's :class:`~repro.serve.protocol.JobSpec`,
:func:`~repro.framework.parallel.run_parallel` and
:func:`~repro.framework.pipeline.run` all describe a run with a
:class:`RunConfig` and check it with the one :meth:`RunConfig.validate`,
so they accept and reject exactly the same configurations.  Settings
are named by strings, which keeps a config picklable for shard workers
and JSON-shaped for serve; :meth:`RunConfig.make_model` turns the names
into a cycle-model object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.interpreter import ENGINES

#: Cycle-model names (``"none"`` = functional simulation only).
MODELS = ("none", "ilp", "aie", "doe", "rtl")
#: Branch predictors (``"perfect"`` = no misprediction extension).
PREDICTORS = ("perfect", "not-taken", "bimodal", "gshare")
#: Models with a fetch stage: only these consult a branch predictor or
#: produce per-slot timeline events.
_PIPELINED = ("aie", "doe", "rtl")
#: Models the sampling tier can reset and warm between intervals.
_SAMPLED = ("aie", "doe")

DEFAULT_MAX_INSTRUCTIONS = 100_000_000


def model_name(cycle_model) -> str:
    """The :attr:`RunConfig.model` name of a cycle-model object."""
    if cycle_model is None:
        return "none"
    return str(
        getattr(cycle_model, "name", type(cycle_model).__name__)
    ).lower()


@dataclass(frozen=True)
class RunConfig:
    """Engine, model and budget of one run; see :meth:`validate`.

    ``sampling`` is a spec string ``"U:k[:W[:seed]]"`` or a
    :class:`~repro.framework.sampling.SamplingConfig`; None runs the
    exact tier.
    """

    engine: str = "superblock"
    model: str = "none"
    branch_predictor: str = "perfect"
    branch_penalty: int = 3
    fuse_cycles: bool = True
    max_block_len: Optional[int] = None
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    sampling: object = None

    def validate(
        self,
        *,
        trace: bool = False,
        profile: Optional[str] = None,
        timeline: bool = False,
        checkpoint_every: Optional[int] = None,
    ) -> "RunConfig":
        """Raise ValueError unless the run is coherent; return self.

        The keywords describe the observers attached to the run:
        ``profile`` is the profiler mode (``"exact"``/``"block"``) and
        ``checkpoint_every`` the periodic-checkpoint interval.
        """
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected one of {ENGINES}")
        if self.branch_predictor not in PREDICTORS:
            raise ValueError(
                f"unknown branch predictor {self.branch_predictor!r}")
        for name in ("max_instructions", "branch_penalty"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        if self.max_block_len is not None and not (
            isinstance(self.max_block_len, int) and self.max_block_len > 0
        ):
            raise ValueError("max_block_len must be a positive integer")
        if not isinstance(self.fuse_cycles, bool):
            raise ValueError("fuse_cycles must be a boolean")
        if checkpoint_every is not None:
            if not (isinstance(checkpoint_every, int)
                    and checkpoint_every > 0):
                raise ValueError(
                    "checkpoint_every must be a positive integer")
            if self.model == "rtl":
                raise ValueError(
                    "checkpoint_every needs a cycle model with saved "
                    "state; the rtl pipeline cannot be checkpointed")
        if self.sampling is not None:
            self.sampling_config()
            if self.model not in _SAMPLED:
                raise ValueError(
                    f"sampling requires a detailed cycle model (aie/doe) "
                    f"with reset_timing, not {self.model!r}"
                )
            incompatible = [
                name for name, value in (
                    ("trace", trace), ("profile", profile),
                    ("timeline", timeline),
                    ("checkpoint_every", checkpoint_every),
                ) if value
            ]
            if incompatible:
                raise ValueError(
                    f"sampling is incompatible with "
                    f"{', '.join(incompatible)}: per-instruction hooks "
                    f"and periodic checkpointing need one continuous "
                    f"detailed run (see docs/performance.md)"
                )
        if self.model not in MODELS:
            raise ValueError(f"unknown cycle model {self.model!r}; "
                             f"expected one of {MODELS}")
        if self.branch_predictor != "perfect" and self.model not in _PIPELINED:
            raise ValueError(
                f"branch predictor {self.branch_predictor} needs a cycle "
                f"model with a fetch stage (aie/doe/rtl); model "
                f"{self.model} never consults a predictor"
            )
        if timeline and self.model not in _PIPELINED:
            raise ValueError(
                f"a timeline needs a microarchitectural cycle model "
                f"(aie/doe/rtl), not {self.model!r}"
            )
        if profile == "block" and self.engine != "superblock":
            raise ValueError(
                "block-mode profiling needs engine superblock (block "
                "attribution expands translated plans)"
            )
        return self

    def sampling_config(self):
        """The :class:`SamplingConfig` of a sampled run, else None."""
        if self.sampling is None:
            return None
        from .sampling import SamplingConfig

        try:
            return SamplingConfig.coerce(self.sampling)
        except TypeError as exc:
            raise ValueError(str(exc)) from None

    def make_model(self, issue_width: int):
        """Build the named cycle model (None for ``"none"``).

        ``issue_width`` sizes the DOE and RTL models.  The config is
        validated first, so an incoherent one never yields a model.
        """
        self.validate()
        if self.model == "none":
            return None
        from ..cycles.aie import AieModel
        from ..cycles.branch import (
            BimodalPredictor,
            BranchModel,
            GsharePredictor,
            NotTakenPredictor,
        )
        from ..cycles.doe import DoeModel
        from ..cycles.ilp import IlpModel
        from ..rtl.pipeline import RtlPipeline

        if self.model == "ilp":
            return IlpModel()
        branch = None
        if self.branch_predictor != "perfect":
            predictor = {
                "not-taken": NotTakenPredictor,
                "bimodal": BimodalPredictor,
                "gshare": GsharePredictor,
            }[self.branch_predictor]
            branch = BranchModel(predictor(), penalty=self.branch_penalty)
        if self.model == "aie":
            return AieModel(branch_model=branch)
        if self.model == "doe":
            return DoeModel(issue_width=issue_width, branch_model=branch)
        return RtlPipeline(issue_width=issue_width, branch_model=branch)

    def run_kwargs(self) -> Dict[str, object]:
        """The :func:`repro.framework.pipeline.run` keywords this
        config sets (the cycle model comes from :meth:`make_model`)."""
        return {
            "engine": self.engine,
            "max_instructions": self.max_instructions,
            "fuse_cycles": self.fuse_cycles,
            "max_block_len": self.max_block_len,
            "sampling": self.sampling,
        }
