"""Layer tracing for the benchmark's traced runs, installed from outside.

Only traced child processes import this module; untraced runs never do, and
``run.py`` checks that.  Nothing under ``src/`` knows about it: ``install``
replaces functions in the package's module namespaces and class dicts.

* Every public module-level function of a layer module becomes a timed span
  named ``<layer>.<function>``.  A function imported by name into another
  module (``cli`` binds ``check_lie_super``, ``gradings`` binds
  ``change_basis`` ...) is replaced in every namespace that binds it, by
  identity, so those calls are traced too.
* ``Mat.apply``, ``Mat.__mul__`` and ``SuperAlgebra.multiply`` (with its
  alias ``bracket``) are timed spans as well.
* The ``scalars`` layer runs millions of times per workload (``Scalar`` and
  ``Cyc`` arithmetic, the ``scalar`` coercion), so its functions and the
  arithmetic methods below are only counted.

Every span only adds to its call count and self time: its duration minus the
durations of the timed spans called inside it.
"""

import functools
import time
import types

# Layer name -> module of the package.
LAYERS = (
    "scalars",
    "abgroup",
    "linalg",
    "superalg",
    "constructions",
    "clifford",
    "gradings",
    "groups",
    "report",
    "cli",
)

# (layer, class, method, span name) of the methods timed on their class.
TIMED_METHODS = (
    ("linalg", "Mat", "apply", "linalg.mat_apply"),
    ("linalg", "Mat", "__mul__", "linalg.mat_mul"),
    ("superalg", "SuperAlgebra", "multiply", "superalg.multiply"),
)

# (layer, class, method, counter name) of the arithmetic that is only counted.
# Subtraction computes ``x + (-y)``, so ``__add__`` (and its alias
# ``__radd__``) runs once per addition or subtraction.
COUNTED_METHODS = (
    ("scalars", "Scalar", "__add__", "scalars.scalar_add"),
    ("scalars", "Scalar", "__mul__", "scalars.scalar_mul"),
    ("scalars", "Scalar", "inverse", "scalars.scalar_inverse"),
    ("scalars", "Cyc", "__add__", "scalars.cyc_add"),
    ("scalars", "Cyc", "__mul__", "scalars.cyc_mul"),
    ("scalars", "Cyc", "inverse", "scalars.cyc_inverse"),
)

# The layer whose functions are counted rather than timed.
COUNTED_LAYER = "scalars"


class Tracer:
    """Span totals and counters of one traced process."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.counts = {}  # counter name -> [count]
        self.where = {}  # span or counter name -> ["module:line:function"]
        self._stack = []  # per open span: [seconds spent in its child spans]

    def _record_where(self, name, fn):
        code = getattr(fn, "__wrapped__", fn).__code__
        module = fn.__module__.rpartition(".")[2]
        self.where.setdefault(name, []).append(
            "%s:%d:%s" % (module, code.co_firstlineno, code.co_name)
        )

    def timed(self, name, fn):
        self._record_where(name, fn)
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return span

    def counted(self, name, fn):
        self._record_where(name, fn)
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def op(*args):
            cell[0] += 1
            return fn(*args)

        return op

    def products_checked(self, fn):
        """Wrap ``verify_grading`` to sum the products its reports checked."""
        cell = self.counts.setdefault("gradings.products_checked", [0])

        @functools.wraps(fn)
        def verify(*args, **kwargs):
            report = fn(*args, **kwargs)
            cell[0] += report["products_checked"]
            return report

        return verify

    def install(self, modules):
        """Wrap the layer modules ``{layer: module}`` in place."""
        replace = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    name = "%s.%s" % (layer, attr)
                    if layer == COUNTED_LAYER:
                        replace[value] = self.counted(name, value)
                        continue
                    fn = value
                    if name == "gradings.verify_grading":
                        fn = self.products_checked(fn)
                    replace[value] = self.timed(name, fn)
        for layer, cls, attr, name in TIMED_METHODS:
            fn = vars(getattr(modules[layer], cls))[attr]
            replace[fn] = self.timed(name, fn)
        for layer, cls, attr, name in COUNTED_METHODS:
            fn = vars(getattr(modules[layer], cls))[attr]
            replace[fn] = self.counted(name, fn)

        # Rebind by identity, so that aliases (``bracket``, ``__radd__``) and
        # names imported into other modules all reach the wrapper.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replace:
                    setattr(mod, attr, replace[value])
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for name, member in list(vars(value).items()):
                        if isinstance(member, types.FunctionType) and member in replace:
                            setattr(value, name, replace[member])

    def result(self):
        return {
            "stats": self.stats,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "where": self.where,
        }
