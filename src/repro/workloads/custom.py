"""User-defined suite models from declarative specs.

The six Table III suites ship as Python modules, but a downstream user
evaluating *their own* benchmark suite should not have to write code: a
suite can be declared as a plain dict (or JSON file) naming each
workload's phases, kernels, and parameters, mirroring the
:class:`repro.workloads.base` schema.

Example spec::

    {
      "name": "mysuite",
      "description": "two little workloads",
      "workloads": {
        "streamy": {
          "phases": [
            {"name": "main", "weight": 1.0,
             "kernels": [{"kernel": "sequential_stream",
                          "params": {"working_set": 1048576}}],
             "write_fraction": 0.4}
          ]
        },
        "pointer": {
          "phases": [
            {"name": "main", "weight": 1.0,
             "kernels": [{"kernel": "pointer_chase",
                          "params": {"working_set": 8388608}}]}
          ]
        }
      }
    }
"""

from __future__ import annotations

import inspect
import json

from repro.workloads.base import KernelSpec, Phase, Suite, Workload
from repro.workloads.generators import BRANCH_MODELS, KERNELS

_PHASE_FIELDS = {
    "write_fraction", "branch_model", "branch_params",
    "branches_per_op", "alu_per_op", "intensity",
}

#: Kernel arguments the trace generator passes itself.
_RESERVED_PARAMS = ("n", "rng", "cursor")


def _build_kernel(spec, where):
    if "kernel" not in spec:
        raise ValueError(f"{where}: kernel spec needs a 'kernel' name")
    kernel = spec["kernel"]
    if kernel not in KERNELS:
        raise ValueError(
            f"{where}: unknown kernel {kernel!r}; available: "
            f"{sorted(KERNELS)}"
        )
    params = dict(spec.get("params", {}))
    signature = inspect.signature(KERNELS[kernel]).parameters
    for name in params:
        if name in _RESERVED_PARAMS:
            raise ValueError(
                f"{where}: param {name!r} is reserved: the trace "
                f"generator passes it to kernel {kernel!r}"
            )
        if name not in signature:
            accepted = [p for p in signature if p not in _RESERVED_PARAMS]
            raise ValueError(
                f"{where}: kernel {kernel!r} takes no param {name!r}; "
                f"accepted: {accepted}"
            )
    missing = [
        name for name, p in signature.items()
        if name not in _RESERVED_PARAMS and name not in params
        and p.default is inspect.Parameter.empty
    ]
    if missing:
        raise ValueError(
            f"{where}: kernel {kernel!r} needs params {missing}"
        )
    return KernelSpec(
        kernel=kernel,
        weight=float(spec.get("weight", 1.0)),
        params=params,
    )


def _build_phase(spec, where):
    if "kernels" not in spec or not spec["kernels"]:
        raise ValueError(f"{where}: phase needs a non-empty 'kernels' list")
    unknown = set(spec) - _PHASE_FIELDS - {"name", "weight", "kernels"}
    if unknown:
        raise ValueError(
            f"{where}: unknown phase fields {sorted(unknown)}"
        )
    branch_model = spec.get("branch_model", "biased")
    if branch_model not in BRANCH_MODELS:
        raise ValueError(
            f"{where}: unknown branch model {branch_model!r}; available: "
            f"{sorted(BRANCH_MODELS)}"
        )
    kernels = tuple(
        _build_kernel(k, f"{where}.kernels[{i}]")
        for i, k in enumerate(spec["kernels"])
    )
    return Phase(
        name=spec.get("name", "phase"),
        weight=float(spec.get("weight", 1.0)),
        kernels=kernels,
        write_fraction=float(spec.get("write_fraction", 0.3)),
        branch_model=branch_model,
        branch_params=dict(spec.get("branch_params", {})),
        branches_per_op=float(spec.get("branches_per_op", 0.4)),
        alu_per_op=float(spec.get("alu_per_op", 3.0)),
        intensity=float(spec.get("intensity", 1.0)),
    )


def suite_from_spec(spec):
    """Build a :class:`Suite` from a declarative dict spec.

    Returns
    -------
    repro.workloads.base.Suite
    """
    if not isinstance(spec, dict):
        raise ValueError("suite spec must be a JSON object")
    if "name" not in spec:
        raise ValueError("suite spec needs a 'name'")
    if not isinstance(spec.get("workloads"), dict) or not spec["workloads"]:
        raise ValueError("suite spec needs a non-empty 'workloads' map")
    workloads = []
    for wl_name, wl_spec in spec["workloads"].items():
        phases_spec = wl_spec.get("phases")
        if not phases_spec:
            raise ValueError(
                f"workload {wl_name!r} needs a non-empty 'phases' list"
            )
        phases = tuple(
            _build_phase(p, f"{wl_name}.phases[{i}]")
            for i, p in enumerate(phases_spec)
        )
        workloads.append(Workload(wl_name, phases))
    return Suite(
        name=spec["name"],
        workloads=tuple(workloads),
        description=spec.get("description", ""),
    )


def suite_from_json(path_or_text):
    """Build a Suite from a JSON file path or JSON string."""
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith(
        "{"
    ):
        spec = json.loads(path_or_text)
    else:
        with open(path_or_text) as f:
            spec = json.load(f)
    return suite_from_spec(spec)


def suite_to_spec(suite):
    """Serialize a Suite back to the declarative dict form (inverse of
    :func:`suite_from_spec` up to parameter defaults)."""
    return {
        "name": suite.name,
        "description": suite.description,
        "workloads": {
            w.name: {
                "phases": [
                    {
                        "name": p.name,
                        "weight": p.weight,
                        "kernels": [
                            {
                                "kernel": k.kernel,
                                "weight": k.weight,
                                "params": dict(k.params),
                            }
                            for k in p.kernels
                        ],
                        "write_fraction": p.write_fraction,
                        "branch_model": p.branch_model,
                        "branch_params": dict(p.branch_params),
                        "branches_per_op": p.branches_per_op,
                        "alu_per_op": p.alu_per_op,
                        "intensity": p.intensity,
                    }
                    for p in w.phases
                ]
            }
            for w in suite.workloads
        },
    }
