"""In-memory span tracer that wraps qhekit's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every qhekit module namespace that bound it (``from .linalg import
is_unitary`` copies the function into ``scheme``, ``localiser``, ``checks``
and the package), and traced methods and constructors on their class.
`Tracer.uninstall()` puts every original back.  qhekit itself is not edited.

Each call records a span (name, start, end, parent span, job id) in flat
arrays, and adds its duration and self time (duration minus the time its
child spans cover) to per-name totals.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; "Class.method" wraps a method, and a bare class
# name wraps its constructor, so that calls through classmethods count too.
TARGETS = (
    ("linalg", "is_unitary"),
    ("linalg", "eig_hermitian"),
    ("linalg", "trace_distance"),
    ("linalg", "haar_unitary"),
    ("layout", "apply_operator"),
    ("layout", "reduced_from_ket"),
    ("layout", "assemble_ket"),
    ("layout", "Layout.ordered"),
    ("layout", "embed_operator"),
    ("qinfo", "DensityOp"),
    ("qinfo", "product_deviation_from_ket"),
    ("qinfo", "orthogonal_support"),
    ("scheme", "run_pipeline"),
    ("scheme", "localisation_problem_at_t1"),
    ("localiser", "localise"),
    ("localiser", "check_zero_leakage"),
    ("localiser", "complete_orthonormal"),
    ("localiser", "LocalisationProblem.output_ket"),
    ("localiser", "extract_plaintext"),
    ("checks", "check_security"),
    ("checks", "check_completeness"),
    ("checks", "check_theorem1"),
    ("catalog", "build_constructed_secure_problem"),
    ("catalog", "build_leaky_problem"),
    ("catalog", "build_qotp_scheme"),
    ("serialize", "scheme_from_json"),
    ("serialize", "report_to_json"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)
JOB = "job"
_MARK = "__perfbench_traced__"


def _first_arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


class Tracer:
    def __init__(self):
        self.labels = NAMES + (JOB,)
        n = len(self.labels)
        self.calls = [0] * n
        self.errors = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self.unitary_flops = 0  # sum of 8 d^3 over is_unitary calls
        self.unitary_max_dim = 0
        self.embed_max_bytes = 0  # largest dense matrix one embed_operator call builds
        self._span_stack: list[int] = []
        self._child_stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _probe_is_unitary(self, args, kwargs):
        d = len(_first_arg(args, kwargs, 0, "u"))
        self.unitary_flops += 8 * d**3
        self.unitary_max_dim = max(self.unitary_max_dim, d)

    def _probe_embed_operator(self, args, kwargs):
        d = _first_arg(args, kwargs, 1, "layout").dim
        self.embed_max_bytes = max(self.embed_max_bytes, d * d * 16)

    def wrap(self, label, fn):
        """A wrapper around fn that records one span per call under label."""
        idx = self.labels.index(label)
        probe = {
            "linalg.is_unitary": self._probe_is_unitary,
            "layout.embed_operator": self._probe_embed_operator,
        }.get(label)
        clock = time.perf_counter
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        span_stack, child_stack = self._span_stack, self._child_stack
        calls, errors, total_s, self_s = self.calls, self.errors, self.total_s, self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            span = len(starts)
            names.append(idx)
            parents.append(span_stack[-1] if span_stack else -1)
            jobs.append(tracer.job)
            span_stack.append(span)
            child_stack.append(0.0)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end = clock()
                ends[span] = end
                span_stack.pop()
                duration = end - start
                calls[idx] += 1
                total_s[idx] += duration
                self_s[idx] += duration - child_stack.pop()
                if child_stack:
                    child_stack[-1] += duration

        setattr(traced, _MARK, True)
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qhekit"]
        for (module_name, attr), label in zip(TARGETS, NAMES):
            owner = importlib.import_module(f"qhekit.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self.wrap(label, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            if isinstance(original, type):
                self._patch(original, "__init__", self.wrap(label, original.__dict__["__init__"]))
                continue
            traced = self.wrap(label, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patch(module, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) as job job_id, under a root span named "job"."""
        self.job = job_id
        try:
            return self.wrap(JOB, fn)(*args)
        finally:
            self.job = -1

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-job per-layer metrics as {name: (value, unit)}."""
        out = {}
        for idx, label in enumerate(NAMES):
            out[f"{label}.calls"] = (self.calls[idx] / jobs, "count")
            if label != "cli.main":  # its total is the whole catalog job
                out[f"{label}.total_s"] = (self.total_s[idx] / jobs, "s")
            out[f"{label}.self_s"] = (self.self_s[idx] / jobs, "s")
        localise = NAMES.index("localiser.localise")
        attempts = self.calls[localise]
        out["localiser.refusal_ratio"] = (self.errors[localise] / attempts if attempts else 0.0, "ratio")
        out["linalg.is_unitary.max_dim"] = (float(self.unitary_max_dim), "dim")
        out["linalg.is_unitary.gflop"] = (self.unitary_flops / jobs / 1e9, "GFLOP")
        out["layout.embed_operator.mib"] = (self.embed_max_bytes / 2**20, "MiB")
        return out

    def save(self, path):
        """Write every span to an .npz file: parallel arrays plus the label table."""
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.span_name, dtype=np.intc),
            parent=np.frombuffer(self.span_parent, dtype=np.intc),
            job=np.frombuffer(self.span_job, dtype=np.intc),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def installed_wrappers() -> list[str]:
    """Names in qhekit modules and traced classes that still hold a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "qhekit":
            continue
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                found.extend(
                    f"{name}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, _MARK, False)
                )
    return found
