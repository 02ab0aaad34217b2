"""Decompose validated queries into single-engine containers plus a
cross-engine remainder, fingerprint them, and enumerate candidate plans.

One rule decomposes every island operator (``_Decomposer.frag_op``): if
all its operands are objects in the island's model on one engine with a
shim for it, it is one container; otherwise it is a remainder node over
its operands, each read in the island's model: an object is fetched by a
container of its own and, if of another model, read through a cast
node; each cast and nested operator is decomposed by the same rule. So
an operator over a nested operator is always a remainder node, even
where one engine could run both. A raw scope is one container. Each
remainder node that an engine must execute gets a site assignment during
enumeration; minimal Migrate steps move inputs to the site. Plan ids
hash the constant-normalized step list so a query and its literal
variants share plan identities.
"""

import functools
import hashlib
from dataclasses import dataclass, field
from itertools import product

from . import sql
from .errors import PlanningError
from .migrator import KEYVALUE, RELATIONAL, chain_for
from .querylang import (
    D4mOp, RawExpr, TextOp, collect_constants, operands, operator_of,
    read_chain,
)

EMPTY_REMAINDER_SENTINEL = "empty-remainder"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def normalize_native(text):
    """Native query text with every literal replaced by '?'."""
    out = []
    for tok in sql.tokenize(text):
        if tok.kind in ("INT", "REAL", "SQSTR", "DQSTR"):
            out.append("?")
        elif tok.kind != "EOF":
            out.append(tok.text)
    return " ".join(out)


@dataclass
class Container:
    engine_id: str
    query: str
    alias: str
    out_model: str
    source_leaf: object = None  # object name when this is a pure leaf fetch

    @property
    def id(self):
        return _sha(f"{self.engine_id}\x00{self.query}")[:16]

    @functools.cached_property
    def norm(self):  # containers are never changed once built
        return f"{self.engine_id}:{normalize_native(self.query)}"


@dataclass
class RNode:
    alias: str
    kind: str  # 'cast' | 'select' | 'matmul' | 'ewise' | 'transpose' | ...
    island: object  # island owning the shim, None for cast
    expr: object  # island operator expression (None for cast)
    inputs: list  # input aliases in leaf order
    leaf_aliases: dict  # id(leaf node) -> input alias
    out_model: str
    params: dict = field(default_factory=dict)  # cast: models, key, chain

    def norm(self):
        if self.kind == "cast":
            spec = self.params
            return (f"cast[{spec['source_model']}->{spec['target_model']}"
                    f",key={spec.get('key')}]({','.join(self.inputs)})")
        alias_of = {nid: a for nid, a in self.leaf_aliases.items()}

        def binding(leaf):
            return alias_of.get(id(leaf), "?")

        if isinstance(self.expr, sql.SelectStmt):
            body = sql.pp_select(self.expr, table_name_fn=binding,
                                 normalize=True)
        else:
            body = _norm_island_expr(self.expr, binding)
        return f"{self.kind}@{self.island}[{body}]"


def _norm_island_expr(expr, binding):
    args = [binding(leaf) for leaf in operands(expr)]
    p = expr.params
    if isinstance(expr, D4mOp):
        if expr.op == "ewise":
            args.append(p["ewise_op"])
        args += [f"{which}=?" for which in ("rows", "cols") if which in p]
    elif isinstance(expr, TextOp):
        if p:
            args.append("?")
    elif expr.op == "agg":
        args.append(f"{p['fn']}({p['attr']}),by({','.join(p['by'])})")
    elif expr.op == "subarray":
        args.append(",".join(f"{d}=?" for d, _, _ in p["ranges"]))
    else:
        args.append(sql.pp_expr(p["pred"], normalize=True))
    return f"{expr.op}({','.join(args)})"


@dataclass
class Remainder:
    nodes: list  # RNode in topological order
    root_alias: str  # alias of the query result (container or node)


@dataclass(frozen=True)
class Signature:
    structure: str  # hex digest
    objects: frozenset  # fully-qualified "engine.name"
    constants: tuple  # sorted multiset of literal lexemes


# --- plan steps --------------------------------------------------------------

@dataclass
class ExecuteContainer:
    container: Container

    def norm(self):
        return f"C[{self.container.norm}]"

    def describe(self):
        c = self.container
        return f"run container {c.alias} on {c.engine_id}: {c.query}"


@dataclass
class Migrate:
    from_engine: object  # engine id, or None for an in-memory value
    to_engine: str
    alias: str  # alias of the value being moved
    chain: list  # CastSpec chain (may be empty)

    def norm(self):
        hops = ",".join(
            f"{s.source_model}->{s.target_model}" for s in self.chain
        )
        return f"M[{self.from_engine}->{self.to_engine}:{self.alias}:{hops}]"

    def describe(self):
        src = self.from_engine or "memory"
        return f"migrate {self.alias} {src} -> {self.to_engine}"


@dataclass
class CrossOp:
    node: RNode
    site: object  # engine id, None for middleware casts
    bindings: dict  # input alias -> ('direct', object name) | ('migrated',)

    def norm(self):
        binds = ",".join(
            f"{a}:{'direct' if b[0] == 'direct' else 'mig'}"
            for a, b in sorted(self.bindings.items())
        )
        return f"X[{self.node.norm()}@{self.site}:{binds}]"

    def describe(self):
        where = "in memory" if self.site is None else f"at {self.site}"
        return f"cross-op {self.node.kind} ({self.node.alias}) {where}"


@dataclass
class CandidatePlan:
    steps: list
    root_alias: str
    estimated_moves: int

    @functools.cached_property
    def id(self):  # steps are never changed once the plan is built
        return _sha("\x00".join(s.norm() for s in self.steps))[:16]


# --- decomposition -------------------------------------------------------------

class _Decomposer:
    def __init__(self, resolved):
        self.res = resolved
        self.registry = resolved.registry
        self.catalog = resolved.catalog
        self.containers = []
        self.nodes = []

    def _calias(self):
        return f"c{len(self.containers)}"

    def _ralias(self):
        return f"r{len(self.nodes)}"

    def add_container(self, **kw):
        """Alias of a new container, or of the identical one (engine,
        query, model and source leaf) already added, so a sub-expression
        a query repeats runs once per plan."""
        c = Container(alias=self._calias(), **kw)
        for old in self.containers:
            if (old.engine_id, old.query, old.out_model, old.source_leaf) == (
                    c.engine_id, c.query, c.out_model, c.source_leaf):
                return old.alias
        self.containers.append(c)
        return c.alias

    def add_node(self, **kw):
        """Alias of a new remainder node, or of the identical one already
        added: same kind, island, inputs, params and expression (spans
        aside), so a sub-expression a query repeats runs once per plan."""
        n = RNode(alias=self._ralias(), **kw)
        for old in self.nodes:
            if (old.kind, old.island, old.inputs, old.params, old.expr) == (
                    n.kind, n.island, n.inputs, n.params, n.expr):
                return old.alias
        self.nodes.append(n)
        return n.alias

    def run(self):
        root_alias = self.frag_scope(self.res.ast.root)
        return self.containers, Remainder(self.nodes, root_alias)

    # ----- leaves

    def fetch(self, info, alias=None, pushed=()):
        """Container that exports one engine-resident object; a table
        fetch keeps the table's alias and the conjuncts pushed down to
        it."""
        if info.model == RELATIONAL:
            query = f"SELECT * FROM {info.name}"
            if alias and alias != info.name:
                query += f" {alias}"
            if pushed:
                query += " WHERE " + " AND ".join(
                    sql.pp_expr(c) for c in pushed)
        elif info.model == KEYVALUE:
            query = f"SCAN {info.name}"
        else:
            arr = self.catalog.engine(info.engine).array(info.name)
            ranges = ",".join(
                f"{n}=0:{length - 1}" for n, length in arr.dims
            )
            query = f"SUBARRAY {info.name} {ranges}"
        return self.add_container(
            engine_id=info.engine, query=query, out_model=info.model,
            source_leaf=None if pushed else info.name,
        )

    def add_cast(self, inner_alias, info, model, key=None):
        """Alias of the cast node reading ``inner_alias``, the value of
        ``info``, in ``model`` by the chain validation typed it with."""
        return self.add_node(
            kind="cast", island=None, expr=None, inputs=[inner_alias],
            leaf_aliases={}, out_model=model, params={
                "source_model": info.model, "target_model": model,
                "key": tuple(key) if key else None,
                "chain": read_chain(info, model, self.catalog, key)})

    def frag_cast(self, cast):
        return self.add_cast(self.frag_scope(cast.inner),
                             self.res.scope_info(cast.inner),
                             self.res.leaves[id(cast)].model, cast.key)

    # ----- scopes

    def frag_scope(self, scope):
        island = self.registry.require_island(scope.island)
        if isinstance(scope.expr, RawExpr):
            return self.add_container(
                engine_id=island.default_engine, query=scope.expr.body,
                out_model=island.model,
            )
        return self.frag_op(island, scope.expr)

    def frag_op(self, island, expr):
        """Alias of the island operator's value: one container when all
        its operands are objects in the island's model on one engine with
        a shim for it, else a remainder node over its operands, each read
        in the island's model."""
        leaves = operands(expr)
        infos = [None if isinstance(leaf, D4mOp) else self.res.leaf(leaf)
                 for leaf in leaves]
        op = operator_of(expr)
        if all(i is not None and i.kind == "object"
               and i.model == island.model for i in infos):
            engine, *rest = {i.engine for i in infos}
            if not rest and self.registry.supports(island.name, engine, op):
                query = self.registry.translate(island.name, expr, engine)
                return self.add_container(
                    engine_id=engine, query=query, out_model=island.model)
        # the order in which operands are decomposed sets the aliases, and
        # so the plan ids: a SELECT fetches each table as it reaches it,
        # with the conjuncts that name it alone; other operators decompose
        # their nested ops and casts first, then fetch and cast their objects
        select = isinstance(expr, sql.SelectStmt)
        conjuncts = _split_conjuncts(expr.where) if select else []
        aliases = {}
        for leaf, info in zip(leaves, infos):
            if info is None:
                aliases[id(leaf)] = self.frag_op(island, leaf)
            elif info.kind == "cast":
                aliases[id(leaf)] = self.frag_cast(info.cast)
            elif select:
                others = _other_schemas(leaves, infos, leaf)
                pushed = [c for c in conjuncts if _only_references(
                    c, leaf.binding, info.schema, others)]
                aliases[id(leaf)] = self.fetch(info, leaf.alias, pushed)
        for leaf, info in zip(leaves, infos):
            if id(leaf) not in aliases:
                alias = self.fetch(info)
                if info.model != island.model:
                    alias = self.add_cast(alias, info, island.model)
                aliases[id(leaf)] = alias
        return self.add_node(
            kind=op, island=island.name, expr=expr,
            inputs=[aliases[id(leaf)] for leaf in leaves],
            leaf_aliases=aliases, out_model=island.model,
        )


def _split_conjuncts(pred):
    if pred is None:
        return []
    if isinstance(pred, sql.Logic) and pred.op == "and":
        return _split_conjuncts(pred.left) + _split_conjuncts(pred.right)
    return [pred]


def _collect_cols(node, out):
    if isinstance(node, sql.Col):
        out.append(node)
    elif isinstance(node, (sql.Bin, sql.Cmp, sql.Logic)):
        _collect_cols(node.left, out)
        _collect_cols(node.right, out)
    elif isinstance(node, sql.Not):
        _collect_cols(node.expr, out)
    elif isinstance(node, sql.Agg) and node.arg is not None:
        _collect_cols(node.arg, out)


def _other_schemas(refs, infos, this_ref):
    out = []
    for ref, info in zip(refs, infos):
        if ref is not this_ref and info.schema:
            out.extend(n for n, _ in info.schema)
    return set(out)


def _only_references(conjunct, binding, schema, other_cols):
    cols = []
    _collect_cols(conjunct, cols)
    names = {n for n, _ in schema}
    for col in cols:
        if col.qual is not None:
            if col.qual != binding:
                return False
        else:
            if col.name not in names or col.name in other_cols:
                return False
    return bool(cols)


def decompose(resolved):
    """(containers, remainder) for a validated query."""
    return _Decomposer(resolved).run()


# --- signatures ---------------------------------------------------------------

def signature_of(remainder, resolved):
    if remainder.nodes:
        body = ";".join(f"{n.alias}={n.norm()}" for n in remainder.nodes)
    else:
        body = EMPTY_REMAINDER_SENTINEL
    objects = frozenset(
        f"{info.engine}.{info.name}"
        for info in resolved.leaves.values()
        if info.kind == "object"
    )
    constants = tuple(sorted(collect_constants(resolved.ast)))
    return Signature(_sha(body), objects, constants)


# --- plan enumeration ------------------------------------------------------------

def _site_candidates(node, registry):
    if node.kind == "cast":
        return [None]
    sites = registry.supporting_engines(node.island, node.kind)
    if not sites:
        raise PlanningError(
            f"no engine supports operator {node.kind!r} of island "
            f"{node.island!r}"
        )
    return sites


def enumerate_plans(containers, remainder, registry, catalog, cap=16):
    """All site assignments of remainder nodes, with minimal migrations,
    deduplicated and capped by fewest estimated moves."""
    by_alias = {c.alias: c for c in containers}
    choices = [_site_candidates(n, registry) for n in remainder.nodes]
    plans = {}
    for assignment in (product(*choices) if remainder.nodes else [()]):
        moves = 0
        # producer residency: alias -> engine id, or None for in-memory
        home = {c.alias: c.engine_id for c in containers}
        model = {c.alias: c.out_model for c in containers}
        executed = set()  # containers whose exported value some step reads
        if remainder.root_alias in by_alias:
            executed.add(remainder.root_alias)
        node_steps = []
        migrated = set()
        for node, site in zip(remainder.nodes, assignment):
            if node.kind == "cast":
                inp = node.inputs[0]
                if inp in by_alias:
                    executed.add(inp)
                node_steps.append(CrossOp(node, None, {inp: ("value",)}))
                home[node.alias] = None
                model[node.alias] = node.out_model
                continue
            # a cross-op reads its inputs in its site engine's model
            need = catalog.engine(site).model
            bindings = {}
            for inp in node.inputs:
                src = by_alias.get(inp)
                if (src is not None and src.source_leaf is not None
                        and home[inp] == site and model[inp] == need):
                    bindings[inp] = ("direct", src.source_leaf)
                    continue
                if inp in by_alias:
                    executed.add(inp)
                if home[inp] == site and model[inp] == need:
                    # already resident on the site engine: stage as a temp
                    # without counting a migration
                    bindings[inp] = ("staged",)
                    continue
                if (inp, site, need) not in migrated:
                    node_steps.append(Migrate(home[inp], site, inp,
                                              chain_for(model[inp], need)))
                    migrated.add((inp, site, need))
                    moves += 1
                bindings[inp] = ("migrated",)
            node_steps.append(CrossOp(node, site, bindings))
            home[node.alias] = None
            model[node.alias] = node.out_model
        steps = [ExecuteContainer(c) for c in containers
                 if c.alias in executed]
        steps.extend(node_steps)
        plan = CandidatePlan(steps, remainder.root_alias, moves)
        plans.setdefault(plan.id, plan)
    ordered = sorted(plans.values(), key=lambda p: (p.estimated_moves, p.id))
    return ordered[:cap]


# --- explain -----------------------------------------------------------------------

def render_explain(containers, remainder, signature, plans):
    lines = ["containers:"]
    for c in containers:
        lines.append(f"  {c.alias} [{c.id}] on {c.engine_id}: {c.query}")
    if remainder.nodes:
        lines.append("remainder:")
        for n in remainder.nodes:
            lines.append(
                f"  {n.alias} = {n.kind}({', '.join(n.inputs)})"
            )
    else:
        lines.append("remainder: empty")
    lines.append("signature:")
    lines.append(f"  structure: {signature.structure}")
    lines.append(f"  objects: {', '.join(sorted(signature.objects)) or '-'}")
    lines.append(f"  constants: {', '.join(signature.constants) or '-'}")
    lines.append(f"plans ({len(plans)}):")
    for p in plans:
        lines.append(f"  plan {p.id} (moves={p.estimated_moves}):")
        for s in p.steps:
            lines.append(f"    - {s.describe()}")
    return "\n".join(lines)
