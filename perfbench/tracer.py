"""Layer spans and counters recorded from outside diacat.

``install`` rebinds each listed public function of a ``diacat`` module, in
every ``diacat`` module that imported it (and in module-level dispatch
tables that hold it), to a wrapper that records a span: id, parent id, job
id, name, start, end and self time.  Self time is the span's duration minus
the part its child spans cover.  Field arithmetic is too fine-grained for
one span per call: its calls are counted and timed, and the time is charged
as child time to the enclosing span.  Everything stays in memory until
``dump``.  Nothing in ``src`` is edited, and nothing is printed, so a traced
job's stdout equals the untraced one byte for byte.

Run as a script, it executes one ``diacat`` CLI job under the tracer:

    python3 perfbench/tracer.py OUT.json JOB_ID -- check doc.json
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from oracle import template_triples

perf = time.perf_counter

# (module, qualified name, layer group); a group's self time is the sum of
# the self times of its spans, its calls the number of spans
SPANS = [
    ("linalg", "rref", "linalg"), ("linalg", "kernel", "linalg"),
    ("linalg", "image", "linalg"), ("linalg", "solve", "linalg"),
    ("linalg", "inverse", "linalg"), ("linalg", "Subspace.span", "linalg"),
    ("linalg", "Subspace.reduce", "linalg"),
    ("linalg", "Subspace.contains", "linalg"),
    ("algebra", "check_dialgebra", "algebra.check"),
    ("algebra", "check_leibniz", "algebra.check"),
    ("algebra", "check_associative", "algebra.check"),
    ("algebra", "check_lie", "algebra.check"),
    ("algebra", "ideal_closure", "algebra.ideal"),
    ("algebra", "is_ideal", "algebra.ideal"),
    ("algebra", "quotient_algebra", "algebra.ideal"),
    ("actions", "check_dialgebra_action", "actions.check"),
    ("actions", "check_leibniz_action", "actions.check"),
    ("actions", "check_assoc_action", "actions.check"),
    ("actions", "check_lie_action", "actions.check"),
    ("actions", "crossed_module_report", "actions.check"),
    ("actions", "lemma_crossed_checks", "actions.check"),
    ("actions", "CrossedModule.check", "actions.check"),
    ("envelope", "ud", "envelope"), ("envelope", "u_lie", "envelope"),
    ("envelope", "xud_full", "envelope"), ("envelope", "xu_full", "envelope"),
    ("envelope", "FreeDialgebra.__init__", "envelope.free"),
    ("envelope", "TensorAlgebra.__init__", "envelope.free"),
    ("functors", "enumerate_homs", "functors.homs"),
    ("functors", "enumerate_generated_homs", "functors.homs"),
    ("functors", "enumerate_xmod_homs", "functors.homs"),
    ("functors", "find_algebra_isomorphism", "functors.homs"),
    ("functors", "find_xmod_isomorphism", "functors.homs"),
    ("functors", "check_square", "functors.verify"),
    ("functors", "verify_adjunction_ud", "functors.verify"),
    ("functors", "verify_adjunction_xud", "functors.verify"),
    ("functors", "verify_adjunction_chain", "functors.verify"),
    ("functors", "check_parallelepiped", "functors.verify"),
]
# every public function of these modules is a span of the module's group
WHOLE_MODULES = ("cat1", "documents")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "is_zero")

GROUPS = ("fields", "linalg", "algebra.check", "algebra.ideal",
          "actions.check", "cat1", "envelope", "envelope.free",
          "functors.homs", "functors.verify", "documents")
COUNTERS = ("fields.ops", "algebra.check.triples", "algebra.ideal.rounds",
            "actions.check.triples", "envelope.free.dim",
            "envelope.result.dim", "functors.homs.space",
            "functors.homs.found", "documents.bytes_in",
            "documents.bytes_out")
INVARIANTS = ("algebra.check.triples", "actions.check.triples",
              "functors.homs.found", "envelope.free.dim",
              "envelope.result.dim")


class Tracer:
    def __init__(self):
        self.job = 0
        self.spans = []          # (id, parent, job, name, t0, t1, self_s)
        self.stack = []          # open spans: [id, name, child_s]
        self.next_id = 1
        self.counters = defaultdict(int)
        self.field_s = 0.0
        self.group_of = {}

    def span(self, name, fn, after=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][2] += t1 - t0
                spans.append((frame[0], parent, self.job, name, t0, t1,
                              t1 - t0 - frame[2]))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def field_op(self, fn, timed=True):
        stack, counters = self.stack, self.counters

        if not timed:
            @functools.wraps(fn)
            def counted(*args):
                counters["fields.ops"] += 1
                return fn(*args)
            return counted

        @functools.wraps(fn)
        def op(*args):
            t0 = perf()
            r = fn(*args)
            dt = perf() - t0
            counters["fields.ops"] += 1
            self.field_s += dt
            if stack:
                stack[-1][2] += dt
            return r
        return op

    def within(self, name):
        return any(frame[1] == name for frame in self.stack)

    # -- aggregation -------------------------------------------------------

    def layer_totals(self):
        """{group: [calls, self_s]} over every recorded span."""
        out = {g: [0, 0.0] for g in GROUPS}
        out["fields"] = [self.counters["fields.ops"], self.field_s]
        for span in self.spans:
            acc = out[self.group_of[span[3]]]
            acc[0] += 1
            acc[1] += span[6]
        return out

    def dump(self, path, extra=None):
        doc = {"groups": self.layer_totals(),
               "counters": {k: self.counters[k] for k in COUNTERS},
               "spans": self.spans}
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# counters computed from arguments and results


def _algebra_triples(tracer, skip_pair_items):
    """check_lie reports two basis-pair items before its template."""
    def after(args, report):
        n = args[0].left_dim
        items = report.items[2:] if skip_pair_items else report.items
        tracer.counters["algebra.check.triples"] += sum(
            template_triples((n, n, n), (it.passed, it.where)) for it in items)
    return after


def _action_triples(tracer):
    def after(args, report):
        act = args[0]
        dims = {"D": act.actor.dim, "L": act.actee.dim, "P": act.actor.dim,
                "M": act.actee.dim}
        for it in report.items:
            if "@ (" in it.name:
                sorts = it.name.split("@ (")[1].rstrip(")").split(",")
            elif it.name.startswith("[[p,p']"):
                sorts = ("P", "P", "M")
            else:
                sorts = ("P", "M", "M")
            tracer.counters["actions.check.triples"] += template_triples(
                [dims[s] for s in sorts], (it.passed, it.where))
    return after


def _hooks(tracer):
    c = tracer.counters

    def add(key, fn):
        def after(args, result):
            c[key] += fn(args, result)
        return after

    def homs(args, result):
        src, tgt = args[0], args[1]
        c["functors.homs.space"] += src.field.p ** (src.dim * tgt.dim)
        c["functors.homs.found"] += len(result)

    def env_homs(args, result):
        env, tgt = args[0], args[1]
        c["functors.homs.space"] += tgt.field.p ** (env.source.dim * tgt.dim)
        c["functors.homs.found"] += len(result)

    def rounds(args, result):
        if tracer.within("algebra.ideal_closure"):
            c["algebra.ideal.rounds"] += 1

    xdim = add("envelope.result.dim",
               lambda a, r: r.xmod.actee.dim + r.xmod.actor.dim)
    return {
        "algebra.check_dialgebra": _algebra_triples(tracer, False),
        "algebra.check_leibniz": _algebra_triples(tracer, False),
        "algebra.check_associative": _algebra_triples(tracer, False),
        "algebra.check_lie": _algebra_triples(tracer, True),
        "actions.check_dialgebra_action": _action_triples(tracer),
        "actions.check_leibniz_action": _action_triples(tracer),
        "actions.check_assoc_action": _action_triples(tracer),
        "actions.check_lie_action": _action_triples(tracer),
        "linalg.Subspace.span": rounds,
        "envelope.FreeDialgebra.__init__": add(
            "envelope.free.dim", lambda a, r: a[0].dim),
        "envelope.TensorAlgebra.__init__": add(
            "envelope.free.dim", lambda a, r: a[0].dim),
        "envelope.ud": add("envelope.result.dim", lambda a, r: r.algebra.dim),
        "envelope.u_lie": add("envelope.result.dim",
                              lambda a, r: r.algebra.dim),
        "envelope.xud_full": xdim,
        "envelope.xu_full": xdim,
        "functors.enumerate_homs": homs,
        "functors.enumerate_generated_homs": env_homs,
        "documents.loads_document": add(
            "documents.bytes_in", lambda a, r: len(a[0].encode("utf-8"))),
        "documents.canonical_json": add(
            "documents.bytes_out", lambda a, r: len(r.encode("utf-8"))),
    }


# ---------------------------------------------------------------------------
# installation


def _rebind(modules, orig, wrapper):
    """Point every module-level name and dispatch-table entry that holds
    ``orig`` at ``wrapper``."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = wrapper


def install(tracer):
    """Wrap the listed diacat functions, methods and field operations."""
    import diacat
    names = ("fields", "linalg", "algebra", "actions", "cat1", "envelope",
             "functors", "documents", "fixtures", "cli", "audit", "config")
    modules = [importlib.import_module(f"diacat.{n}") for n in names]
    modules.append(diacat)
    by_name = dict(zip(names, modules))
    hooks = _hooks(tracer)

    spans = list(SPANS)
    for modname in WHOLE_MODULES:
        mod = by_name[modname]
        spans += [(modname, key, modname) for key, val in vars(mod).items()
                  if callable(val) and not key.startswith("_")
                  and not isinstance(val, type)
                  and getattr(val, "__module__", None) == mod.__name__]

    for modname, qualname, group in spans:
        mod = by_name[modname]
        name = f"{modname}.{qualname}"
        tracer.group_of[name] = group
        if "." in qualname:
            clsname, meth = qualname.split(".")
            cls = getattr(mod, clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(
                    tracer.span(name, raw.__func__, hooks.get(name))))
            else:
                setattr(cls, meth, tracer.span(name, raw, hooks.get(name)))
        else:
            orig = getattr(mod, qualname)
            _rebind(modules, orig, tracer.span(name, orig, hooks.get(name)))

    fields = by_name["fields"]
    for cls in (fields.PrimeField, fields.Rationals):
        for op in FIELD_OPS:
            setattr(cls, op, tracer.field_op(cls.__dict__[op]))
    # div is built from mul and inv, which are timed themselves
    fields.Field.div = tracer.field_op(fields.Field.div, timed=False)


def run_cli_job(out_path, job_id, argv):
    t0 = perf()
    import diacat.cli as cli
    import_s = perf() - t0
    tracer = Tracer()
    tracer.job = job_id
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out_path, {"cli.import_s": import_s})


if __name__ == "__main__":
    out, job = sys.argv[1], int(sys.argv[2])
    sys.exit(run_cli_job(out, job, sys.argv[4:]))
