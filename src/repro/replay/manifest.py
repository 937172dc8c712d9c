"""Run manifests — everything needed to re-execute a recorded run.

A :class:`RunManifest` is the record-time capture of every input the
run was a pure function of: scenario profile, master seed, duration,
time-model knobs (Δ bound, clock family, detector check period),
recorder capacity, the fault plan, and a digest of the ``repro``
source tree at record time.  Embedded in the trace header, it makes
the trace file self-describing: ``repro replay verify`` needs nothing
but the file.

The ``code_digest`` is advisory, not load-bearing: replay under
changed code is allowed (that is the whole point of regression
replay), but a divergence report flags a digest mismatch first so a
"replay diverged" is never mistaken for nondeterminism when the code
simply changed.

Serialization follows the :class:`~repro.faults.plan.FaultPlan`
pattern — ``to_spec``/``from_spec`` over plain data, canonical
``sort_keys`` JSON — so manifests round-trip bit-exactly (the
hypothesis test pins this).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from repro.faults.plan import FaultError, FaultPlan
from repro.util.fields import Field, check_fields, is_int, is_object, is_real, is_str

#: Detector families a manifest may name; see repro.replay.families.
CLOCK_FAMILIES = (
    "vector_strobe",
    "scalar_strobe",
    "offline_vector_strobe",
    "offline_scalar_strobe",
    "physical",
)


#: Field checks of a decoded manifest spec.
_FIELDS: dict[str, Field] = {
    "scenario": (True, is_str, "a string"),
    "seed": (True, is_int, "an integer"),
    "duration": (True, is_real, "a finite number"),
    "delta": (True, is_real, "a finite number"),
    "clock_family": (False, is_str, "a string"),
    "check_period": (False, is_real, "a finite number"),
    "capacity": (False, is_int, "an integer"),
    "liveness_horizon": (False, is_real, "a finite number"),
    "plan": (False, is_object, "an object"),
    "code_digest": (False, is_str, "a string"),
}


def code_digest() -> str:
    """blake2b digest of the ``repro`` source tree (sorted relative
    paths + contents) — identifies the code a trace was recorded by."""
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.blake2b(digest_size=8)
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@dataclass(frozen=True, slots=True)
class RunManifest:
    """The replayable inputs of one recorded run.

    ``check_period`` is the online detector's flush period — the "sync
    period" knob of the time model: how often the detector advances its
    2Δ stability watermark.  It is ignored by the offline families
    (they sort the complete record stream after the run).
    ``liveness_horizon`` is the online families' per-interval liveness
    bound (``None`` disables it; the chaos harness records 30.0).
    """

    scenario: str
    seed: int
    duration: float
    delta: float
    clock_family: str = "vector_strobe"
    check_period: float = 0.1
    capacity: int = 65536
    liveness_horizon: "float | None" = None
    plan: "FaultPlan | None" = None
    code_digest: "str | None" = None

    def __post_init__(self) -> None:
        if self.clock_family not in CLOCK_FAMILIES:
            raise ValueError(
                f"unknown clock family {self.clock_family!r} "
                f"(have {', '.join(CLOCK_FAMILIES)})"
            )
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if not 0 < self.check_period < math.inf:
            raise ValueError(
                f"check_period must be positive, got {self.check_period}"
            )
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.liveness_horizon is not None \
                and not 0 < self.liveness_horizon < math.inf:
            raise ValueError(
                f"liveness_horizon must be positive or None, "
                f"got {self.liveness_horizon}"
            )

    # -- serialization --------------------------------------------------
    def to_spec(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": int(self.seed),
            "duration": float(self.duration),
            "delta": float(self.delta),
            "clock_family": self.clock_family,
            "check_period": float(self.check_period),
            "capacity": int(self.capacity),
            "liveness_horizon": (
                float(self.liveness_horizon)
                if self.liveness_horizon is not None else None
            ),
            "plan": self.plan.to_spec() if self.plan is not None else None,
            "code_digest": self.code_digest,
        }

    @staticmethod
    def from_spec(spec: Mapping[str, Any]) -> "RunManifest":
        """The manifest of a decoded spec (a null optional field takes
        its default); ``ValueError`` if the spec is not a manifest."""
        try:
            check_fields(spec, _FIELDS)
            plan = FaultPlan.from_spec(spec["plan"]) if spec.get("plan") else None
        except KeyError as exc:
            raise ValueError(f"manifest needs {exc}") from exc
        except (TypeError, FaultError) as exc:
            raise ValueError(f"manifest {exc}") from exc
        given = {k: v for k, v in spec.items() if k in _FIELDS and v is not None}
        return RunManifest(**{**given, "plan": plan})

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        return RunManifest.from_spec(json.loads(text))

    def with_(self, **changes: Any) -> "RunManifest":
        """A copy with the given fields replaced (counterfactual use)."""
        return replace(self, **changes)


__all__ = ["RunManifest", "CLOCK_FAMILIES", "code_digest"]
