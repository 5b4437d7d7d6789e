"""Span tracing for the benchmark's traced runs.

The tracer wraps qpklab's public functions, named by dotted path in
`TARGETS`, from outside the package: nothing under `src/` knows it exists.
Each call to a wrapped target records its self time (duration minus the time
spent in wrapped children) and its call count. Coarse targets also keep one
span each (name, start, end, parent span, trial id); hot ones (`agg`) are only
aggregated, because a span per call would cost more than the call. `count`
targets are counted but not timed.

A target that does not resolve (renamed or deleted by a later change) is
reported absent; every metric that depends only on absent targets is reported
absent too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, AGG, COUNT = "span", "agg", "count"

EIG_GROUP = "analysis.eig"

# (dotted target, group, kind). Groups feed the per-layer metrics below.
TARGETS = [
    # bits: called hundreds of times per trial, so aggregated
    ("qpklab.bits.check_bits", "bits", AGG),
    ("qpklab.bits.bits_to_int", "bits", AGG),
    ("qpklab.bits.int_to_bits", "bits", AGG),
    ("qpklab.bits.xor_bits", "bits", AGG),
    ("qpklab.bits.random_bits", "bits", AGG),
    ("qpklab.bits.pack_bits", "bits", AGG),
    ("qpklab.bits.unpack_bits", "bits", AGG),
    # sim
    ("qpklab.sim.PureState.__post_init__", "sim.statevector", COUNT),
    ("qpklab.sim.tensor", "sim.tensor", SPAN),
    ("qpklab.sim.apply_function_oracle", "sim.oracle", SPAN),
    ("qpklab.sim.apply_phase_oracle", "sim.oracle", SPAN),
    ("qpklab.sim.born_probabilities", "sim.measure", SPAN),
    ("qpklab.sim.project", "sim.measure", AGG),
    ("qpklab.sim.measure_computational", "sim.measure", SPAN),
    ("qpklab.sim.puncture", "sim.measure", SPAN),
    ("qpklab.sim.fidelity", "sim.distance", AGG),
    ("qpklab.sim.trace_distance", "sim.distance", SPAN),
    ("qpklab.sim.swap_test", "sim.distance", SPAN),
    ("qpklab.sim.project_onto", "sim.distance", SPAN),
    # primitives
    ("qpklab.primitives.prf_eval", "primitives.prf", AGG),
    ("qpklab.primitives.StreamSke.encrypt", "primitives.ske", SPAN),
    ("qpklab.primitives.StreamSke.decrypt", "primitives.ske", SPAN),
    ("qpklab.primitives.PhasePrfs.gen", "primitives.state_gen", AGG),
    ("qpklab.primitives.ToyPrfspd.gen", "primitives.state_gen", AGG),
    ("qpklab.primitives.PhasePrfs.oracle_isometry", "primitives.isometry", SPAN),
    ("qpklab.primitives.ToyPrfspd.delete", "primitives.pod", SPAN),
    ("qpklab.primitives.ToyPrfspd.verify", "primitives.pod", AGG),
    # schemes
    ("qpklab.schemes.QpkeScheme.gen", "schemes.keygen", SPAN),
    ("qpklab.schemes.OwfScheme.qpk_gen", "schemes.qpk_gen", SPAN),
    ("qpklab.schemes.PrfspdScheme.qpk_gen", "schemes.qpk_gen", SPAN),
    ("qpklab.schemes.PrfsScheme.qpk_gen", "schemes.qpk_gen", SPAN),
    ("qpklab.schemes.OwfScheme.encrypt", "schemes.encrypt", SPAN),
    ("qpklab.schemes.PrfspdScheme.encrypt", "schemes.encrypt", SPAN),
    ("qpklab.schemes.PrfsScheme.encrypt", "schemes.encrypt", SPAN),
    ("qpklab.schemes.OwfScheme.decrypt", "schemes.decrypt", SPAN),
    ("qpklab.schemes.PrfspdScheme.decrypt", "schemes.decrypt", SPAN),
    ("qpklab.schemes.PrfsScheme.decrypt", "schemes.decrypt", SPAN),
    ("qpklab.schemes.serialize_ciphertext", "schemes.wire", SPAN),
    ("qpklab.schemes.deserialize_ciphertext", "schemes.wire", SPAN),
    # games
    ("qpklab.games.run_ind_cpa", "games", SPAN),
    ("qpklab.games.run_ind_cpa_eo", "games", SPAN),
    # adversaries: every callback the challengers make on the two adversaries used
    ("qpklab.adversaries.AdversaryStrategy.begin", "adversaries", SPAN),
    ("qpklab.adversaries.AdversaryStrategy.encryption_query", "adversaries", SPAN),
    ("qpklab.adversaries.AdversaryStrategy.receive_ciphertext", "adversaries", SPAN),
    ("qpklab.adversaries.StateComparisonAdversary.num_key_copies", "adversaries", SPAN),
    ("qpklab.adversaries.StateComparisonAdversary.receive_public_key_copy", "adversaries", SPAN),
    ("qpklab.adversaries.StateComparisonAdversary.choose_challenge", "adversaries", SPAN),
    ("qpklab.adversaries.StateComparisonAdversary.receive_challenge", "adversaries", SPAN),
    ("qpklab.adversaries.StateComparisonAdversary.guess", "adversaries", SPAN),
    ("qpklab.adversaries.CopyMeasureAdversary.num_key_copies", "adversaries", SPAN),
    ("qpklab.adversaries.CopyMeasureAdversary.receive_public_key_copy", "adversaries", SPAN),
    ("qpklab.adversaries.CopyMeasureAdversary.choose_challenge", "adversaries", SPAN),
    ("qpklab.adversaries.CopyMeasureAdversary.receive_challenge", "adversaries", SPAN),
    ("qpklab.adversaries.CopyMeasureAdversary.guess", "adversaries", SPAN),
    # analysis: self time of the public oracles is the density/state build
    ("qpklab.analysis.optimal_advantage", "analysis.build", SPAN),
    ("qpklab.analysis.commuting_measurement_check", "analysis.build", SPAN),
    ("qpklab.analysis.punctured_key_distance", "analysis.build", SPAN),
    ("qpklab.analysis.punctured_key_distance_explicit", "analysis.build", SPAN),
    ("qpklab.analysis.random_key_indistinguishability_check", "analysis.build", SPAN),
    ("qpklab.analysis.total_variation", "analysis.build", SPAN),
    # dense spectral solves, wherever the package calls them from; the likely
    # replacements of eigvalsh are listed too, so a change of solver is counted
    ("numpy.linalg.eigvalsh", EIG_GROUP, SPAN),
    ("numpy.linalg.eigh", EIG_GROUP, SPAN),
    ("numpy.linalg.svd", EIG_GROUP, SPAN),
    ("scipy.linalg.eigvalsh", EIG_GROUP, SPAN),
    ("scipy.linalg.eigh", EIG_GROUP, SPAN),
    ("scipy.linalg.svd", EIG_GROUP, SPAN),
]

_MISSING = object()


def _sha_blocks(width: int) -> int:
    return -(-width // 256)


# Hooks run before the wrapped call and read its arguments; they count work
# that the call count alone does not show.

def _prf_hook(t, args, kwargs):
    width = args[2] if len(args) > 2 else kwargs["out_width"]
    t.counts["sha_blocks"] += _sha_blocks(width)


def _ske_encrypt_hook(t, args, kwargs):
    message = args[2] if len(args) > 2 else kwargs["message"]
    t.counts["sha_blocks"] += _sha_blocks(len(message))


def _ske_decrypt_hook(t, args, kwargs):
    ct = args[2] if len(args) > 2 else kwargs["ct"]
    t.counts["sha_blocks"] += _sha_blocks(len(ct.body))


def _state_gen_hook(t, args, kwargs):
    family, key, x = args[0], args[1], args[2]
    cache = getattr(family, "_cache", _MISSING)
    if cache is _MISSING:
        t.cache_absent = True
    elif (key, x) in cache:
        t.counts["state_cache_hits"] += 1


def _statevector_hook(t, args, kwargs):
    q = args[0].qubit_count
    t.counts["amp_bytes"] += 16 << q
    t.peak("peak_qubits", q)


def _qpk_gen_hook(t, args, kwargs):
    dk = args[1] if len(args) > 1 else kwargs["dk"]
    t.dk_seen.add(dk.bits)


def _eig_hook(t, args, kwargs):
    dim = args[0].shape[-1]
    t.counts["dense_bytes"] += 16 * dim * dim
    t.peak("eig_max_dim", dim)


HOOKS = {
    "qpklab.primitives.prf_eval": _prf_hook,
    "qpklab.primitives.StreamSke.encrypt": _ske_encrypt_hook,
    "qpklab.primitives.StreamSke.decrypt": _ske_decrypt_hook,
    "qpklab.primitives.PhasePrfs.gen": _state_gen_hook,
    "qpklab.primitives.ToyPrfspd.gen": _state_gen_hook,
    "qpklab.sim.PureState.__post_init__": _statevector_hook,
    "qpklab.schemes.OwfScheme.qpk_gen": _qpk_gen_hook,
    "qpklab.schemes.PrfspdScheme.qpk_gen": _qpk_gen_hook,
    "qpklab.schemes.PrfsScheme.qpk_gen": _qpk_gen_hook,
}


class Tracer:
    """In-memory spans and counters for one traced job."""

    def __init__(self):
        self.stack = []  # open frames: [child seconds, enclosing span id]
        self.spans = []  # (span id, name, start, end, parent span id, trial id)
        self.calls = Counter()  # target -> calls
        self.self_s = defaultdict(float)  # target -> self seconds
        self.counts = Counter()
        self.peaks = Counter()
        self.dk_seen = set()
        self.cache_absent = False
        self.trial = None

    def peak(self, name, value):
        if value > self.peaks[name]:
            self.peaks[name] = value

    def wrap(self, name, fn, kind, hook):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        tracer = self

        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                if hook is not None:
                    hook(tracer, args, kwargs)
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)

        keep = kind == SPAN

        def timed(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if keep else parent
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans[span_id] = (span_id, name, start, end, parent, tracer.trial)

        return functools.update_wrapper(timed, fn)


def resolve(dotted: str):
    """Return (owner, attribute name, raw attribute) for a dotted target.

    For a method the owner is the class that defines it, found along the MRO,
    so a method inherited by several table entries is wrapped once. Raises
    ImportError or AttributeError when the target does not exist.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            obj = getattr(obj, attr)
        name = parts[-1]
        if inspect.isclass(obj):
            for klass in obj.__mro__:
                if name in vars(klass):
                    return klass, name, vars(klass)[name]
            raise AttributeError(dotted)
        return obj, name, getattr(obj, name)
    raise ImportError(dotted)


def _package_functions(modules):
    """Every plain function defined at module or class level in `modules`."""
    for mod in modules:
        for value in list(vars(mod).values()):
            if inspect.isfunction(value):
                yield value
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for member in vars(value).values():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield member


class Installation:
    """The patches one `install` made, so `uninstall` can undo them."""

    def __init__(self):
        self.patches = []  # (object, attribute, original value)
        self.absent = []  # dotted targets that did not resolve
        self.groups = defaultdict(list)  # group -> resolved dotted targets
        self.absent_groups = defaultdict(list)  # group -> unresolved dotted targets

    def set(self, obj, attr, value):
        self.patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, original in reversed(self.patches):
            setattr(obj, attr, original)
        self.patches.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target in place and rebind the package's other references.

    A module-level function is also replaced wherever a qpklab module imported
    it by name, and wherever a qpklab function holds it as a default argument
    (e.g. `prf=prf_eval`), so calls through those names are traced too.
    """
    inst = Installation()
    done = set()
    for dotted, group, kind in targets:
        try:
            owner, name, raw = resolve(dotted)
        except (ImportError, AttributeError):
            inst.absent.append(dotted)
            inst.absent_groups[group].append(dotted)
            continue
        inst.groups[group].append(dotted)
        if (id(owner), name) in done:
            continue
        done.add((id(owner), name))
        fn = getattr(raw, "__func__", raw)
        hook = _eig_hook if group == EIG_GROUP else HOOKS.get(dotted)
        wrapper = tracer.wrap(dotted, fn, kind, hook)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapper = type(raw)(wrapper)
        inst.set(owner, name, wrapper)
        if inspect.isclass(owner):
            continue
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qpklab" or n.startswith("qpklab."))]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is raw and not (mod is owner and attr == name):
                    inst.set(mod, attr, wrapper)
        for func in _package_functions(package):
            defaults = func.__defaults__
            if defaults and any(d is raw for d in defaults):
                inst.set(func, "__defaults__",
                         tuple(wrapper if d is raw else d for d in defaults))
    return inst


# --- per-layer metrics ------------------------------------------------------

def _self(t, inst, *groups):
    return sum(t.self_s[d] for g in groups for d in inst.groups.get(g, ()))


def _calls(t, inst, *groups):
    return sum(t.calls[d] for g in groups for d in inst.groups.get(g, ()))


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, groups it depends on, per-trial?, fn(tracer, installation, extra))
# `extra` carries what the workload itself observed: games played and valid,
# and inclusive times of the named oracle calls (these depend on no target).
PER_LAYER = {
    "primitives.prf_calls": ("count", ["primitives.prf"], True,
                             lambda t, i, x: _calls(t, i, "primitives.prf")),
    "primitives.prf_s": ("s", ["primitives.prf"], True,
                         lambda t, i, x: _self(t, i, "primitives.prf")),
    "primitives.sha_blocks": ("count", ["primitives.prf", "primitives.ske"], True,
                              lambda t, i, x: t.counts["sha_blocks"]),
    "primitives.state_gen_calls": ("count", ["primitives.state_gen"], True,
                                   lambda t, i, x: _calls(t, i, "primitives.state_gen")),
    "primitives.state_gen_s": ("s", ["primitives.state_gen"], True,
                               lambda t, i, x: _self(t, i, "primitives.state_gen")),
    "primitives.state_cache_hit_ratio": (
        "ratio", ["primitives.state_gen"], False,
        lambda t, i, x: None if t.cache_absent else _ratio(
            t.counts["state_cache_hits"], _calls(t, i, "primitives.state_gen"))),
    "primitives.isometry_s": ("s", ["primitives.isometry"], True,
                              lambda t, i, x: _self(t, i, "primitives.isometry")),
    "primitives.ske_s": ("s", ["primitives.ske"], True,
                         lambda t, i, x: _self(t, i, "primitives.ske")),
    "primitives.pod_s": ("s", ["primitives.pod"], True,
                         lambda t, i, x: _self(t, i, "primitives.pod")),
    "sim.statevectors": ("count", ["sim.statevector"], True,
                         lambda t, i, x: _calls(t, i, "sim.statevector")),
    "sim.amp_bytes": ("bytes", ["sim.statevector"], True,
                      lambda t, i, x: t.counts["amp_bytes"]),
    "sim.peak_qubits": ("qubits", ["sim.statevector"], False,
                        lambda t, i, x: t.peaks["peak_qubits"]),
    "sim.oracle_s": ("s", ["sim.oracle"], True, lambda t, i, x: _self(t, i, "sim.oracle")),
    "sim.measure_s": ("s", ["sim.measure"], True, lambda t, i, x: _self(t, i, "sim.measure")),
    "sim.distance_s": ("s", ["sim.distance"], True,
                       lambda t, i, x: _self(t, i, "sim.distance")),
    "sim.tensor_s": ("s", ["sim.tensor"], True, lambda t, i, x: _self(t, i, "sim.tensor")),
    "schemes.keygen_s": ("s", ["schemes.keygen"], True,
                         lambda t, i, x: _self(t, i, "schemes.keygen")),
    "schemes.qpk_gen_calls": ("count", ["schemes.qpk_gen"], True,
                              lambda t, i, x: _calls(t, i, "schemes.qpk_gen")),
    "schemes.qpk_gen_s": ("s", ["schemes.qpk_gen"], True,
                          lambda t, i, x: _self(t, i, "schemes.qpk_gen")),
    "schemes.qpk_gen_unique_ratio": (
        "ratio", ["schemes.qpk_gen"], False,
        lambda t, i, x: _ratio(len(t.dk_seen), _calls(t, i, "schemes.qpk_gen"))),
    "schemes.encrypt_s": ("s", ["schemes.encrypt"], True,
                          lambda t, i, x: _self(t, i, "schemes.encrypt")),
    "schemes.decrypt_s": ("s", ["schemes.decrypt"], True,
                          lambda t, i, x: _self(t, i, "schemes.decrypt")),
    "schemes.wire_s": ("s", ["schemes.wire"], True, lambda t, i, x: _self(t, i, "schemes.wire")),
    "bits.calls": ("count", ["bits"], True, lambda t, i, x: _calls(t, i, "bits")),
    "bits.check_bits_calls": ("count", ["bits"], True,
                              lambda t, i, x: t.calls["qpklab.bits.check_bits"]),
    "bits.s": ("s", ["bits"], True, lambda t, i, x: _self(t, i, "bits")),
    "games.self_s": ("s", ["games"], True, lambda t, i, x: _self(t, i, "games")),
    "games.valid_ratio": ("ratio", ["games"], False,
                          lambda t, i, x: _ratio(x["games_valid"], x["games"])),
    "adversaries.self_s": ("s", ["adversaries"], True,
                           lambda t, i, x: _self(t, i, "adversaries")),
    "analysis.eig_calls": ("count", [EIG_GROUP], True, lambda t, i, x: _calls(t, i, EIG_GROUP)),
    "analysis.eig_s": ("s", [EIG_GROUP], True, lambda t, i, x: _self(t, i, EIG_GROUP)),
    "analysis.eig_max_dim": ("dim", [EIG_GROUP], False,
                             lambda t, i, x: t.peaks["eig_max_dim"]),
    "analysis.dense_bytes": ("bytes", [EIG_GROUP], True,
                             lambda t, i, x: t.counts["dense_bytes"]),
    "analysis.build_s": ("s", ["analysis.build"], True,
                         lambda t, i, x: _self(t, i, "analysis.build")),
}

ORACLE_TIMES = ("helstrom_prfs_keyed", "helstrom_prfs_random", "helstrom_owf_keyed",
                "commuting", "punctured", "random_key")
for _label in ORACLE_TIMES:
    PER_LAYER[f"analysis.{_label}_s"] = (
        "s", [], True, lambda t, i, x, _l=_label: x["oracle_s"].get(_l, 0.0))

COUNT_METRICS = ("primitives.prf_calls", "primitives.sha_blocks", "sim.statevectors",
                 "sim.peak_qubits", "schemes.qpk_gen_calls", "analysis.eig_calls")


def layer_metrics(tracer: Tracer, inst: Installation, trials: int, extra: dict) -> dict:
    """Per-layer values for one traced job: name -> (value or None, unit, absent).

    Counts and times marked per-trial are divided by the job's trial count.
    `absent` lists the missing targets when the metric could not be measured.
    """
    out = {}
    for name, (unit, groups, per_trial, fn) in PER_LAYER.items():
        if groups and not any(inst.groups.get(g) for g in groups):
            missing = [d for g in groups for d in inst.absent_groups.get(g, ())]
            out[name] = (None, unit, missing)
            continue
        value = fn(tracer, inst, extra)
        if value is None:
            out[name] = (None, unit, ["qpklab.primitives.*._cache"])
            continue
        out[name] = (value / trials if per_trial else value, unit, [])
    return out
