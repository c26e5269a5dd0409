"""lock-order: the static lock acquisition-order graph must be acyclic.

Nodes are mutexes qualified by their owning class (DB::mu_,
BlockCache::Shard::mu, ...). An edge A -> B is recorded when B is
acquired while A is held:

  * directly — a MutexLock (or manual Lock()) nested inside another
    MutexLock scope or inside a REQUIRES(A)/AssertHeld(A) context;
  * interprocedurally — a call made while holding A to a function that
    (transitively) acquires B, via ACQUIRE annotations, MutexLock scopes,
    or its own callees.

A cycle in this graph is a potential deadlock; a self-edge is a
double-acquire of a non-reentrant std::mutex. Mutexes named by a function
parameter (generic helpers like MutexLock's own constructor) are skipped:
they alias a caller lock that is already represented at the call site.

ScopedUnlock windows drop their mutex from the held set, so release-
then-acquire sequences do not create edges.

Calls resolve by simple name, so `file->Flush()` also reaches DB::Flush.
A `// monkey-lint: lock-order — <reason>` on a call vouches that the call
acquires none of the locks its namesakes do: it neither adds edges nor
propagates acquisitions to its caller.
"""

import os

from ..project import Finding
from ..regions import LockRegions

RULE = "lock-order"


def _qualify(fn, mu):
    """Stable graph node for mutex expression `mu` acquired inside `fn`,
    or None when the expression cannot name a unique global lock."""
    if mu in ("", "this"):
        return None
    if any(ch in mu for ch in (".", "->", "[", "(")):
        return None  # Compound receiver: not resolvable textually.
    if mu in fn.params:
        return None  # Generic helper locking a caller-supplied mutex.
    if fn.class_name:
        return f"{fn.class_name}::{mu}"
    stem = os.path.splitext(os.path.basename(fn.file))[0]
    return f"{stem}::{mu}"


class Graph:
    def __init__(self):
        self.edges = {}  # src -> {dst: (file, line, via)}

    def add(self, src, dst, file, line, via):
        if src is None or dst is None or src == dst:
            if src is not None and src == dst:
                self.edges.setdefault(src, {}).setdefault(
                    src, (file, line, via))
            return
        self.edges.setdefault(src, {}).setdefault(dst, (file, line, via))

    def cycles(self):
        """Minimal cycle witnesses: one per strongly-connected component
        with a cycle, plus self-loops."""
        index = {}
        low = {}
        on_stack = {}
        stack = []
        sccs = []
        counter = [0]
        nodes = set(self.edges)
        for d in self.edges.values():
            nodes.update(d)

        def strongconnect(v):
            work = [(v, iter(self.edges.get(v, {})))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack[v] = True
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(self.edges.get(w, {}))))
                        advanced = True
                        break
                    elif on_stack.get(w):
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    sccs.append(comp)

        for v in sorted(nodes):
            if v not in index:
                strongconnect(v)

        out = []
        for comp in sccs:
            if len(comp) > 1:
                out.append(self._witness_cycle(comp))
            elif comp[0] in self.edges.get(comp[0], {}):
                v = comp[0]
                out.append([(v, v, self.edges[v][v])])
        return out

    def _witness_cycle(self, comp):
        comp_set = set(comp)
        start = sorted(comp)[0]
        # BFS back to start staying inside the component.
        prev = {start: None}
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in self.edges.get(v, {}):
                if w not in comp_set:
                    continue
                if w == start and v != start:
                    path = [start]
                    node = v
                    back = []
                    while node is not None:
                        back.append(node)
                        node = prev[node]
                    back.reverse()
                    path = back + [start]
                    return [(path[i], path[i + 1],
                             self.edges[path[i]][path[i + 1]])
                            for i in range(len(path) - 1)]
                if w not in prev:
                    prev[w] = v
                    queue.append(w)
        # Fallback: report the component's edges.
        v = comp[0]
        w = next(iter(self.edges.get(v, {})))
        return [(v, w, self.edges[v][w])]


def _vouched(sf, line):
    """The lock-order suppression covering a call on `line`, if it gives a
    reason (a reasonless one vouches for nothing)."""
    s = sf.suppression_for(RULE, line)
    return s if s is not None and s.reason else None


def _transitive_acquires(project, regions):
    """qualname-independent fixpoint: id(fn) -> {node: (file, line)} of
    locks the function may acquire during its execution."""
    acq = {}
    for sf in project.files:
        for fn in sf.functions:
            own = {}
            for (idx, mu, line) in regions[id(fn)].acquisitions():
                node = _qualify(fn, mu)
                if node:
                    own[node] = (sf.path, line)
            for mu in fn.acquires:
                node = _qualify(fn, mu)
                if node:
                    own.setdefault(node, (sf.path, fn.line))
            acq[id(fn)] = own
    changed = True
    while changed:
        changed = False
        for sf in project.files:
            for fn in sf.functions:
                mine = acq[id(fn)]
                for (name, line, idx) in fn.calls:
                    if _vouched(sf, line) is not None:
                        continue
                    for target in project.resolve(name):
                        if target is fn:
                            continue
                        for node, w in acq[id(target)].items():
                            if node not in mine:
                                mine[node] = w
                                changed = True
    return acq


def run(project):
    regions = {}
    for sf in project.files:
        for fn in sf.functions:
            regions[id(fn)] = LockRegions(sf, fn)
    acq = _transitive_acquires(project, regions)

    graph = Graph()
    for sf in project.files:
        for fn in sf.functions:
            reg = regions[id(fn)]
            # Direct nesting edges.
            for (idx, mu, line) in reg.acquisitions():
                dst = _qualify(fn, mu)
                held = reg.held_at(max(fn.body_start + 1, idx - 1))
                for h, (hline, _k) in held.items():
                    if h == mu:
                        continue
                    graph.add(_qualify(fn, h), dst, sf.path, line,
                              f"{fn.qualname} acquires '{mu}' while "
                              f"holding '{h}'")
                # Self-edge: same mutex already held at this acquisition.
                if mu in held:
                    graph.add(dst, dst, sf.path, line,
                              f"{fn.qualname} re-acquires '{mu}' (already "
                              f"held since line {held[mu][0]})")
            # Interprocedural edges.
            for (name, line, idx) in fn.calls:
                held = reg.held_at(idx)
                if not held:
                    continue
                targets = project.resolve(name)
                supp = _vouched(sf, line)
                for target in targets:
                    if target is fn:
                        continue
                    for node, _w in acq[id(target)].items():
                        for h, _hl in held.items():
                            src = _qualify(fn, h)
                            if src == node:
                                continue  # Re-entry is the self-edge case.
                            if supp is not None:
                                supp.used = True  # Vouched away at the call.
                                continue
                            graph.add(
                                src, node, sf.path, line,
                                f"{fn.qualname} holds '{h}' and calls "
                                f"{target.qualname} which acquires "
                                f"{node}")

    findings = []
    for cycle in graph.cycles():
        desc = " ; ".join(
            f"{src} -> {dst} ({os.path.basename(f)}:{ln}: {via})"
            for (src, dst, (f, ln, via)) in cycle)
        (f0, l0, _via0) = cycle[0][2]
        nodes = " -> ".join([c[0] for c in cycle] + [cycle[0][0]])
        findings.append(Finding(
            RULE, f0, l0,
            f"lock acquisition-order cycle {nodes}: {desc}. Pick one "
            f"global order for these mutexes and restructure the "
            f"acquisitions to follow it."))
    return findings
