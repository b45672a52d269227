"""Which zernkit calls the traced run wraps, and the per-layer metrics.

Layers are the program's modules, plus ``linalg`` for the numpy/scipy
factorizations they call.  Each hook names a public function or method by
where it is defined; ``spans.Hooks`` wraps every binding of it across
``zernkit.*``, so a re-import such as ``domains.zernike_polar`` is traced
too.  Hooks that match nothing (a function removed or renamed by a refactor)
are reported as absent and their metrics read zero.

Flop counts are computed from array shapes with the Golub & Van Loan
operation counts, not measured.
"""

from __future__ import annotations

import inspect
import math
import re

from spans import FunctionHook, MethodHook


def _evals(args, kwargs, result):
    return {"evals": int(getattr(result, "size", 1))}


def _points(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _forward_points(args, kwargs, result):
    return {"points": int(getattr(result[0], "size", 1))}


def _nodes(args, kwargs, result):
    return {"nodes": len(result)}


def _entries(args, kwargs, result):
    return {"entries": int(result.entries.size)}


def _singular(args, kwargs, result):
    return {"singular": int(math.isinf(result.kappa2))}


def _grid_points(args, kwargs, result):
    from zernkit import collocation

    bound = inspect.signature(collocation.lebesgue_constant).bind(*args, **kwargs)
    bound.apply_defaults()
    shape = bound.arguments.get("grid_shape")
    return {"grid_points": math.prod(shape) if shape else 0}


def _mesh_points(args, kwargs, result):
    found = re.search(r"mesh=(\d+)", getattr(result, "metadata", ""))
    return {"mesh_points": int(found.group(1)) if found else 0}


def _svd(args, kwargs, result):
    m, n = args[0].shape[-2:]
    big, k = max(m, n), min(m, n)
    with_vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if with_vectors:
        flops = 4 * big * big * k + 8 * big * k * k + 9 * k**3
    else:
        flops = 4 * big * k * k - (4 * k**3) // 3
    return {"flops": flops}


def _lu_solve(args, kwargs, result):
    n = args[0][0].shape[0]
    rhs = getattr(result, "shape", (n,))
    rhs = 1 if len(rhs) < 2 else rhs[1]
    return {"rhs": rhs, "flops": 2 * n * n * rhs}


def _rhs(args, kwargs, result):
    shape = getattr(result, "shape", ())
    return {"rhs": 1 if len(shape) < 2 else int(result.size // shape[-1])}


HOOKS = (
    FunctionHook("zernike", "zernkit.zernike", "zernike_polar", _evals),
    FunctionHook("zernike", "zernkit.zernike", "zernike_xy", _evals),
    # the batched kernel of a planned refactor, traced as soon as it exists
    FunctionHook("zernike", "zernkit.zernike", "zernike_matrix", _evals),
    FunctionHook("samplings.generate_nodes", "zernkit.samplings", "generate_nodes"),
    FunctionHook("samplings.approximate_fekete", "zernkit.samplings",
                 "approximate_fekete", _mesh_points),
    FunctionHook("domains.transfer_nodes", "zernkit.domains", "transfer_nodes", _nodes),
    MethodHook("domains.basis_eval", "zernkit.domains",
               ("eval_polar", "eval_xy", "node_values", "matrix"), measure=_evals),
    MethodHook("domains.map_forward", "zernkit.domains",
               ("forward_xy", "forward_polar"), measure=_forward_points),
    FunctionHook("collocation.assemble", "zernkit.collocation", "assemble", _entries),
    FunctionHook("collocation.condition_number", "zernkit.collocation",
                 "condition_number", _singular),
    FunctionHook("collocation.lebesgue_constant", "zernkit.collocation",
                 "lebesgue_constant", _grid_points),
    FunctionHook("linalg.svd", "numpy.linalg", "svd", _svd),
    FunctionHook("linalg.lu_factor", "scipy.linalg", "lu_factor"),
    FunctionHook("linalg.lu_solve", "scipy.linalg", "lu_solve", _lu_solve),
    FunctionHook("linalg.qr", "scipy.linalg", "qr"),
    FunctionHook("wavefront.kolmogorov_wavefront", "zernkit.wavefront",
                 "kolmogorov_wavefront"),
    MethodHook("wavefront.interpolator_init", "zernkit.wavefront", ("__init__",),
               cls="ZonalInterpolator"),
    MethodHook("wavefront.truth", "zernkit.wavefront", ("truth",), measure=_points),
    MethodHook("wavefront.sample", "zernkit.wavefront", ("sample",), measure=_points),
    MethodHook("wavefront.solve", "zernkit.wavefront", ("solve",), measure=_rhs),
    MethodHook("wavefront.approximate", "zernkit.wavefront", ("approximate",)),
    MethodHook("wavefront.reconstruct", "zernkit.wavefront", ("reconstruct",)),
    FunctionHook("cli", "zernkit.cli", "main"),
)

GROUPS = tuple(dict.fromkeys(hook.group for hook in HOOKS))

# Metrics of each group, named "<group>.<field>": "calls", "self_s" (in s),
# "flops" (in flop) or another count.
_GROUP_FIELDS = (
    ("zernike", ("calls", "evals", "self_s")),
    ("samplings.generate_nodes", ("calls", "self_s")),
    ("samplings.approximate_fekete", ("calls", "self_s", "mesh_points")),
    ("domains.transfer_nodes", ("calls", "nodes", "self_s")),
    ("domains.basis_eval", ("calls", "evals", "self_s")),
    ("domains.map_forward", ("points", "self_s")),
    ("collocation.assemble", ("calls", "entries", "self_s")),
    ("collocation.condition_number", ("calls", "self_s")),
    ("collocation.lebesgue_constant", ("calls", "grid_points", "self_s")),
    ("linalg.svd", ("calls", "flops", "self_s")),
    ("linalg.lu_factor", ("calls", "self_s")),
    ("linalg.lu_solve", ("calls", "rhs", "flops", "self_s")),
    ("linalg.qr", ("calls", "self_s")),
    ("wavefront.kolmogorov_wavefront", ("calls", "self_s")),
    ("wavefront.interpolator_init", ("calls", "self_s")),
    ("wavefront.truth", ("points", "self_s")),
    ("wavefront.sample", ("points", "self_s")),
    ("wavefront.solve", ("rhs", "self_s")),
    ("wavefront.approximate", ("self_s",)),
    ("wavefront.reconstruct", ("calls", "self_s")),
    ("cli", ("self_s",)),
)
_UNITS = {"self_s": "s", "flops": "flop"}
_LAYER_FIELDS = tuple(
    (f"{group}.{name}", _UNITS.get(name, "count"), group, name)
    for group, names in _GROUP_FIELDS
    for name in names
)

# metrics the traced run adds on top of the per-group fields
_DERIVED = (
    ("zernike.ns_per_eval", "ns"),
    ("collocation.singular", "count"),
    ("trace.sweep_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.absent_hooks", "count"),
)

PER_LAYER = tuple((name, unit) for name, unit, _, _ in _LAYER_FIELDS) + _DERIVED


def layer_metrics(totals, sweeps, sweep_s, root_s, overhead_frac, absent):
    """Per-layer metric values, averaged over ``sweeps`` traced sweeps.

    ``totals`` are ``spans.aggregate`` results summed over those sweeps,
    ``sweep_s`` and ``root_s`` the summed sweep wall time and root-span time.
    Means keep the sum rule exact: the ``self_s`` values plus
    ``trace.unattributed_s`` equal ``trace.sweep_s``.
    """
    def field(group, name):
        entry = totals.get(group)
        if entry is None:
            return 0
        if name == "calls":
            return entry.calls
        if name == "self_s":
            return entry.self_s
        return entry.counts.get(name, 0)

    values = {}
    for metric, _, group, name in _LAYER_FIELDS:
        values[metric] = field(group, name) / sweeps
    evals = field("zernike", "evals")
    values["zernike.ns_per_eval"] = 1e9 * field("zernike", "self_s") / evals if evals else 0.0
    singular = sum(
        entry.counts.get("singular", 0) + entry.errors.get("SingularMatrixError", 0)
        for group, entry in totals.items()
        if group.startswith("collocation.")
    )
    values["collocation.singular"] = singular / sweeps
    values["trace.sweep_s"] = sweep_s / sweeps
    values["trace.unattributed_s"] = (sweep_s - root_s) / sweeps
    values["trace.overhead_frac"] = overhead_frac
    values["trace.absent_hooks"] = len(absent)
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def self_time_groups():
    """Every group whose self time is a metric; with trace.unattributed_s
    they partition the traced sweep time."""
    return [group for group, names in _GROUP_FIELDS if "self_s" in names]
