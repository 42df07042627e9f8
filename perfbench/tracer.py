"""Run one rjpascal CLI command with timing wrappers at each layer boundary.

Usage: python tracer.py TRACE_OUT TRACE_ID -- <rjpascal arguments>

The wrappers are installed from outside after ``import rjpascal``; the
package itself is not modified.  Coarse boundaries (the command, each
spectral check, the builders, matrix products, det/inverse, each sweep)
record spans with parent links.  Hot arithmetic boundaries, which run
millions of times per command, record only a count and accumulated time.
Every boundary gets self time: its duration minus the time spent in
nested traced boundaries.  The trace is written to TRACE_OUT as JSON.
"""
from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stats: dict[str, list] = {}  # name -> [count, self_s, total_s]
        self.extra = {"poly_mul.max_degree": 0, "ring_matmul.max_coeff_bits": 0,
                      "a_pow.repeats": 0, "sweep.cases": 0, "sweep.skipped": 0}
        self.spans: list = []
        self._child = 0.0   # traced time nested inside the current boundary
        self._current = None  # id of the innermost open span
        self._a_pow_keys: set = set()

    def wrap(self, name: str, fn, span: bool, post=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            saved = tracer._child
            tracer._child = 0.0
            if span:
                parent, sid = tracer._current, len(tracer.spans)
                tracer.spans.append(None)
                tracer._current = sid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - tracer._child
                stat[2] += dt
                tracer._child = saved + dt
                if span:
                    tracer._current = parent
                    tracer.spans[sid] = (sid, parent, name, t0, t1)
            if post is not None and out is not NotImplemented:
                post(args, out)
            return out

        return traced

    # post-call probes -------------------------------------------------

    def _poly_degree(self, args, out):
        deg = len(out.coeffs) - 1
        if deg > self.extra["poly_mul.max_degree"]:
            self.extra["poly_mul.max_degree"] = deg

    def _coeff_bits(self, args, out):
        rows = out.rows if hasattr(out, "rows") else (out,)
        bits = max(
            (abs(c).bit_length() for row in rows for e in row
             for c in e.c0.coeffs + e.c1.coeffs),
            default=0,
        )
        if bits > self.extra["ring_matmul.max_coeff_bits"]:
            self.extra["ring_matmul.max_coeff_bits"] = bits

    def _a_pow_key(self, args, out):
        # the x_image of the result is the cache's second key
        key = (args[0], out.x_image.coeffs)
        if key in self._a_pow_keys:
            self.extra["a_pow.repeats"] += 1
        self._a_pow_keys.add(key)

    def _sweep(self, args, out):
        self.extra["sweep.cases"] += out.cases_checked
        self.extra["sweep.skipped"] += len(out.skipped)

    def install(self) -> None:
        """Wrap every boundary and rebind every alias of it in rjpascal."""
        from rjpascal import binomial, cli, pascal, ring, spectral

        RE, IP, RM, IM = ring.RingElem, ring.IntPoly, pascal.RingMatrix, pascal.IntMatrix
        # (name, owner, attribute, span, post)
        boundaries = [
            ("ring.elem_mul", RE, "__mul__", False, None),
            ("ring.poly_mul", IP, "__mul__", False, self._poly_degree),
            ("ring.poly_add", IP, "__add__", False, None),
            ("ring.a_pow", ring, "a_pow", False, self._a_pow_key),
            ("ring.specialize", RE, "specialize", False, None),
            ("ring.divide_exact", RE, "divide_exact", False, None),
            ("binomial.binom", binomial, "binom", False, None),
            ("binomial.sweep", binomial, "sweep_identity", True, self._sweep),
            ("pascal.build", pascal, "build_r", True, None),
            ("pascal.build", pascal, "build_rx", True, None),
            ("pascal.build", pascal, "build_u", True, None),
            ("pascal.build", pascal, "build_w", True, None),
            ("pascal.ring_matmul", RM, "__matmul__", True, self._coeff_bits),
            ("pascal.ring_matmul", RM, "mul_vector", True, self._coeff_bits),
            ("pascal.int_matmul", IM, "__matmul__", True, None),
            ("pascal.det", IM, "det", True, None),
            ("pascal.inverse", IM, "inverse_unimodular", True, None),
            ("spectral.eigen", spectral, "verify_eigenpair", True, None),
            ("spectral.involution", spectral, "verify_involution", True, None),
            ("spectral.closed_form", spectral, "matrix_power_closed_form", True, None),
            ("spectral.oracle", spectral, "matrix_power_oracle", True, None),
            ("spectral.diag_numeric", spectral, "verify_diagonalization_numeric", True, None),
            ("cli.emit", cli, "_emit_json", True, None),
            ("cli.command", cli, "main", True, None),
        ]
        owners = _namespaces()
        originals = {}
        for name, owner, attr, span, post in boundaries:
            original = vars(owner)[attr]
            originals[id(original)] = name
            wrapped = self.wrap(name, original, span, post)
            # Modules import these by name and classes alias them
            # (__rmul__ = __mul__), so every binding must be replaced.
            for ns in owners:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
        missed = [f"{ns.__name__}.{key}" for ns in owners
                  for key, value in vars(ns).items() if id(value) in originals]
        if missed:
            raise RuntimeError(f"unwrapped aliases: {missed}")

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "import_s": import_s,
                       "stats": self.stats, "extra": self.extra,
                       "spans": self.spans}, fh)


def _namespaces() -> list:
    """Every rjpascal module and every class defined in one."""
    mods = [m for name, m in sys.modules.items()
            if name == "rjpascal" or name.startswith("rjpascal.")]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("rjpascal")}
    return mods + list(classes.values())


def main() -> int:
    out_path, trace_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_OUT TRACE_ID -- ARGS...")
    t0 = time.perf_counter()
    import rjpascal.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(trace_id)
    tracer.install()
    code = rjpascal.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
