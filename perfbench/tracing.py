"""Spans around the public functions of every `transmix` module.

The tracer lives entirely in the benchmark: it replaces each public
module-level function with a timing wrapper in every namespace that holds a
reference to it.  Callers look functions up in different places -- `tmg` and
`thmm` import `gaussian_template_stats` by name, `cli` imports the metric and
transform builders by name, `classify` reaches `tca.loglik` through the module
object -- so patching only the defining module would miss calls.

Spans are kept in memory as ``[name, start, end, parent, extra]`` lists and
summarised per round; the runner writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect

from opclock import now

PHASE_PREFIX = "bench."
SPAN_MODULES = ("cli", "classify", "common", "manifest", "metrics", "model_io",
                "mtca", "synthgen", "tca", "thmm", "tmg", "transforms")


class Tracer:
    """Installs span wrappers for the duration of a `with tracer.installed()`."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (phases of a round)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, extra) -> None:
        self.spans[idx][2] = now()
        self.spans[idx][4] = extra
        self._stack.pop()

    def _wrap(self, name: str, fn):
        is_fit = name.endswith(".fit")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if is_fit:  # (model, reports): record the EM iteration count
                    extra = len(result[1])
                return result
            finally:
                self._close(idx, extra)
        return wrapper

    def _targets(self):
        """(original function, span name) for every public function."""
        out = {}
        for mod_name in SPAN_MODULES:
            mod = getattr(self.package, mod_name)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out[obj] = f"{mod_name}.{attr}"
        return out

    @contextlib.contextmanager
    def installed(self):
        targets = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        namespaces = [vars(self.package)] + [
            vars(getattr(self.package, m)) for m in SPAN_MODULES]
        patched = []
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    ns[attr] = wrappers[obj]
                    patched.append((ns, attr, obj))
        try:
            yield
        finally:
            for ns, attr, obj in patched:
                ns[attr] = obj

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def _children(spans):
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def _dur(s) -> float:
    return s[2] - s[1]


def summarise(spans) -> dict[str, float]:
    """Per-layer metrics of one round from its spans.

    `*_s` with no `self` in the name is inclusive time of the outermost spans
    in the group; `*_self_s` subtracts the time of every child span.
    """
    kids = _children(spans)
    self_time = [_dur(s) - sum(_dur(spans[k]) for k in kids[i])
                 for i, s in enumerate(spans)]

    def outermost(names) -> float:
        total = 0.0
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += _dur(s)
        return total

    def self_of(names) -> float:
        return sum(t for s, t in zip(spans, self_time) if s[0] in names)

    def calls(name) -> int:
        return sum(1 for s in spans if s[0] == name)

    def iterations(name) -> int:
        return sum(s[4] or 0 for s in spans if s[0] == name)

    def module(prefix) -> set:
        return {s[0] for s in spans if s[0].startswith(prefix + ".")}

    posterior_calls = {"thmm.forward_backward", "thmm.viterbi"}
    frame_loop = 0.0
    for i, s in enumerate(spans):
        if s[0] in ("thmm.track", "thmm.denoise", "thmm.stabilize"):
            frame_loop += _dur(s) - sum(_dur(spans[k]) for k in kids[i]
                                        if spans[k][0] in posterior_calls)
    viterbi_used = sum(1 for s in spans if s[0] == "thmm.viterbi"
                       and (s[3] < 0 or spans[s[3]][0] != "thmm.forward_backward"))
    phases = {s[0] for s in spans if s[0].startswith(PHASE_PREFIX)}

    return {
        "synthgen.gen_s": outermost(module("synthgen")),
        "transforms.build_s": outermost({"transforms.build_translation_set",
                                         "transforms.build_shear_translation_set",
                                         "transforms.identity_set"}),
        "tmg.loglik_table_s": outermost({"tmg.loglik_table"}),
        "tmg.loglik_table_calls": calls("tmg.loglik_table"),
        "common.template_stats_s": outermost({"common.gaussian_template_stats"}),
        "common.template_stats_calls": calls("common.gaussian_template_stats"),
        "tmg.fit_self_s": self_of({"tmg.fit"}),
        "tmg.em_iterations": iterations("tmg.fit"),
        "tmg.posterior_s": outermost({"tmg.posterior"}),
        "tmg.posterior_calls": calls("tmg.posterior"),
        "tca.cluster_loglik_s": outermost({"tca.cluster_loglik"}),
        "tca.cluster_loglik_calls": calls("tca.cluster_loglik"),
        "tca.accumulate_stats_s": outermost({"tca.accumulate_stats"}),
        "tca.fit_self_s": self_of({"tca.fit"}),
        "tca.em_iterations": iterations("tca.fit"),
        "mtca.fit_self_s": self_of({"mtca.fit"}),
        "mtca.em_iterations": iterations("mtca.fit"),
        "classify.classify_batch_self_s": self_of(module("classify")),
        "classify.marginal_loglik_calls": calls("classify.marginal_loglik"),
        "thmm.emission_table_s": outermost({"thmm.emission_table"}),
        "thmm.emission_table_calls": calls("thmm.emission_table"),
        "thmm.forward_backward_self_s": self_of({"thmm.forward_backward"}),
        "thmm.forward_backward_calls": calls("thmm.forward_backward"),
        "thmm.score_sequence_self_s": self_of({"thmm.score_sequence"}),
        "thmm.viterbi_s": outermost({"thmm.viterbi"}),
        "thmm.viterbi_calls": calls("thmm.viterbi"),
        "thmm.viterbi_paths_used": viterbi_used,
        "thmm.fit_self_s": self_of({"thmm.fit"}),
        "thmm.em_iterations": iterations("thmm.fit"),
        "thmm.from_tmg_s": outermost({"thmm.from_tmg"}),
        "thmm.frame_loop_s": frame_loop,
        "model_io.save_s": outermost({"model_io.save_model"}),
        "model_io.load_s": outermost({"model_io.load_model"}),
        "model_io.frames_s": outermost({"model_io.read_frames",
                                        "model_io.write_frames"}),
        "cli.self_s": self_of(module("cli")),
        "trace.spans": sum(1 for s in spans if s[0] not in phases),
        "trace.unattributed_s": self_of({PHASE_PREFIX + "train",
                                         PHASE_PREFIX + "infer"}),
    }


# metric name -> unit; counts are per round and repeat exactly between rounds
LAYER_UNITS = {name: ("count" if name.endswith(("_calls", "_iterations",
                                                "_used", ".spans"))
                      else "s")
               for name in summarise([]).keys()}
LAYER_UNITS["trace.overhead_s"] = "s"
