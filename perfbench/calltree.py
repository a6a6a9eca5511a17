"""Call-tree tracing of latcount's public functions, installed from outside.

The tracer replaces each listed function, in every latcount module that holds
a reference to it, with a wrapper that records into a tree of nodes keyed by
the chain of wrapped callers.  A node aggregates every call made under the
same parent: a per-element call such as ``gauge_leq`` is one node with a call
count and summed time, not one span per call.  A generator's node covers the
time spent inside its ``next()`` calls, and counts the items it yielded.
Times are integer nanoseconds, so self time (total minus the children's
totals) is exact and never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

_clock = time.perf_counter_ns

# module -> functions to wrap; "GroupElement" traces element construction
TARGETS = {
    "cli": ("resolve_spec", "run_experiment", "render_csv", "render_json"),
    "lattice": ("enumerate_ball", "count_series", "bucket_index", "orbit_forms_count",
                "sl_residue_order"),
    "gauges": ("gauge_leq", "gauge_eval", "forms_substitute", "parse_gauge"),
    "groups": ("GroupElement", "reduce_mod", "group_inv", "group_mul"),
    "haar": ("volume_of_ball", "lattice_normalized_volumes", "fit_growth",
             "convolve_profiles", "admissibility_estimate", "ball_volume_profile",
             "balanced_weight_criterion", "balanced_volume_ratio",
             "balanced_volume_verdict"),
    "spectral": ("xi_eval", "spectral_summary"),
    "torus": ("deviation_series", "decay_fit"),
}
LAYERS = tuple(TARGETS)


class Node:
    __slots__ = ("name", "calls", "items", "errors", "total_ns", "start_ns",
                 "end_ns", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = self.items = self.errors = self.total_ns = 0
        self.start_ns: int | None = None
        self.end_ns = 0
        self.children: dict[str, Node] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def record(self, t0: int, t1: int) -> None:
        self.total_ns += t1 - t0
        if self.start_ns is None:
            self.start_ns = t0
        self.end_ns = t1


class Tracer:
    """One call tree per process; ``root`` spans one whole experiment."""

    def __init__(self):
        self.root = Node("cli.experiment")
        self.stack = [self.root]
        self.first_call_ns: dict[str, int] = {}

    def _enter(self, name: str) -> tuple[Node, int]:
        node = self.stack[-1].child(name)
        self.stack.append(node)
        return node, _clock()

    def _leave(self, node: Node, name: str, t0: int) -> None:
        t1 = _clock()
        node.record(t0, t1)
        self.stack.pop()
        if name not in self.first_call_ns:
            self.first_call_ns[name] = t1 - t0

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node, t0 = self._enter(name)
            node.calls += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                node.errors += 1
                raise
            finally:
                self._leave(node, name, t0)

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                node, t0 = self._enter(name)
                if first:
                    node.calls += 1
                    first = False
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception:
                    node.errors += 1
                    raise
                finally:
                    self._leave(node, name, t0)
                node.items += 1
                yield item

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function wherever a latcount module refers to it."""
        modules = [importlib.import_module(f"latcount.{m}") for m in LAYERS]
        holders = [m for name, m in sys.modules.items()
                   if name == "latcount" or name.startswith("latcount.")]
        for layer, mod in zip(LAYERS, modules):
            for fname in TARGETS[layer]:
                name = f"{layer}.{fname}"
                if fname == "GroupElement":
                    cls = getattr(mod, fname)
                    cls.__post_init__ = self.wrap(name, cls.__post_init__)
                    continue
                orig = getattr(mod, fname)
                traced = self.wrap(name, orig)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, attr, traced)

    def run(self, fn):
        """Call fn() inside the root span."""
        t0 = _clock()
        self.root.calls += 1
        try:
            return fn()
        except Exception:
            self.root.errors += 1
            raise
        finally:
            self.root.record(t0, _clock())

    def tree(self, span_id: str) -> dict:
        origin = self.root.start_ns or 0

        def dump(node: Node) -> dict:
            kids = [dump(c) for c in node.children.values()]
            return {
                "name": node.name,
                "calls": node.calls,
                "items": node.items,
                "errors": node.errors,
                "start_ns": (node.start_ns or origin) - origin,
                "end_ns": node.end_ns - origin,
                "total_ns": node.total_ns,
                "self_ns": node.total_ns - sum(k["total_ns"] for k in kids),
                "children": kids,
            }

        out = dump(self.root)
        out["id"] = span_id
        out["first_call_ns"] = dict(self.first_call_ns)
        return out


def walk(tree: dict, parent: dict | None = None):
    """Yield (node, parent) over a dumped tree, depth first."""
    yield tree, parent
    for child in tree["children"]:
        yield from walk(child, tree)


def problems(tree: dict) -> list[str]:
    """Well-formedness: each child lies inside its parent; self time >= 0."""
    out = []
    for node, parent in walk(tree):
        if node["self_ns"] < 0:
            out.append(f"{node['name']}: negative self time {node['self_ns']}")
        if node["start_ns"] > node["end_ns"]:
            out.append(f"{node['name']}: ends before it starts")
        if parent is not None and not (
            parent["start_ns"] <= node["start_ns"] and node["end_ns"] <= parent["end_ns"]
        ):
            out.append(f"{node['name']}: outside its parent {parent['name']}")
    return out
