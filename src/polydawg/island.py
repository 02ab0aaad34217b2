"""Islands of information: data model + operator set + member engines,
with shims that translate island operators into engine-native queries."""

from dataclasses import dataclass

from . import sql
from .errors import CatalogError, PlanningError, ValidationError
from .querylang import ObjRef, operator_of


@dataclass(frozen=True)
class Island:
    name: str
    model: str  # relational | keyvalue | array
    operators: frozenset
    members: tuple  # ordered engine ids
    default_engine: str


class ShimError(PlanningError):
    """No translation for an (island, engine, operator) triple; tells the
    planner to insert a migration instead."""


class IslandRegistry:
    def __init__(self):
        self.islands = {}
        self._shims = {}  # (island, engine) -> {operator: translate fn}

    def add_island(self, island, shims):
        if island.name in self.islands:
            raise CatalogError(f"duplicate island {island.name!r}")
        self.islands[island.name] = island
        for engine_id, ops in shims.items():
            self._shims[(island.name, engine_id)] = dict(ops)

    def island(self, name):
        return self.islands.get(name)

    def require_island(self, name):
        isl = self.islands.get(name)
        if isl is None:
            raise ValidationError(f"unknown island {name!r}")
        return isl

    def supports(self, island, engine, operator):
        """True iff a shim translation exists for the triple."""
        self.require_island(island)
        return operator in self._shims.get((island, engine), ())

    def supporting_engines(self, island, operator):
        isl = self.require_island(island)
        return [e for e in isl.members if self.supports(island, e, operator)]

    def translate(self, island, expr, engine_id, binding=None):
        """Native query text computing ``expr`` on ``engine_id``.

        ``binding`` maps a leaf node to the object name holding its data
        on that engine; by default a leaf that names an object uses that
        name.
        """
        op = operator_of(expr)
        shims = self._shims.get((island, engine_id))
        if shims is None or op not in shims:
            raise ShimError(
                f"({island}, {engine_id}, {op}) has no shim translation"
            )
        return shims[op](expr, binding or _default_binding)


def _default_binding(leaf):
    """The object that an operand names: an object name, or a SELECT's
    table ref that holds no cast."""
    if isinstance(leaf, (ObjRef, sql.TableRef)) and leaf.name is not None:
        return leaf.name
    raise ShimError(f"leaf {leaf!r} is not bound to an engine object")


# --- shim translation functions ---------------------------------------------

def _t_relational_select(expr, binding):
    return sql.pp_select(expr, table_name_fn=lambda ref: binding(ref))


def _fmt_kv_range(which, rng):
    return f'{which} {sql.quote_dq(rng[0])}:{sql.quote_dq(rng[1])}'


def _kv_scan(leaf, params, binding):
    parts = [f"SCAN {binding(leaf)}"]
    for which, kw in (("rows", "ROWS"), ("cols", "COLS")):
        if which in params:
            parts.append(_fmt_kv_range(kw, params[which]))
    return " ".join(parts)


def _t_text_scan(expr, binding):
    return _kv_scan(expr.obj, expr.params, binding)


def _t_text_grep(expr, binding):
    return f"GREP {binding(expr.obj)} {sql.quote_dq(expr.params['needle'])}"


def _t_array_subarray(expr, binding):
    ranges = ",".join(f"{d}={lo}:{hi}" for d, lo, hi in expr.params["ranges"])
    return f"SUBARRAY {binding(expr.obj)} {ranges}"


def _t_array_filter(expr, binding):
    return f"FILTER {binding(expr.obj)} {sql.pp_expr(expr.params['pred'])}"


def _t_array_agg(expr, binding):
    p = expr.params
    dims = ", ".join(p["by"])
    return f"AGG {p['fn']}({p['attr']}) {binding(expr.obj)} BY ({dims})"


def _t_d4m_select_kv(expr, binding):
    return _kv_scan(expr.inputs[0], expr.params, binding)


def _t_d4m_matmul(expr, binding):
    a, b = (binding(x) for x in expr.inputs)
    return f"MATMUL {a} {b} SEMIRING plus.times"


def _t_d4m_ewise(expr, binding):
    a, b = (binding(x) for x in expr.inputs)
    return f"EWISE {a} {b} {expr.params['ewise_op']}"


def _t_d4m_select_rel(expr, binding):
    name = binding(expr.inputs[0])
    conds = []
    for which, col in (("rows", "r"), ("cols", "c")):
        if which in expr.params:
            lo, hi = expr.params[which]
            conds.append(f"{col} >= {sql.quote_sq(lo)}")
            conds.append(f"{col} <= {sql.quote_sq(hi)}")
    where = f" WHERE {' AND '.join(conds)}" if conds else ""
    return f"SELECT r AS row, c AS col, v AS val FROM {name}{where}"


def _t_d4m_matmul_rel(expr, binding):
    a, b = (binding(x) for x in expr.inputs)
    return (
        f"SELECT a.r AS row, b.c AS col, SUM(a.v * b.v) AS val "
        f"FROM {a} a JOIN {b} b ON a.c = b.r GROUP BY a.r, b.c"
    )


def _t_d4m_transpose_rel(expr, binding):
    name = binding(expr.inputs[0])
    return f"SELECT a.c AS row, a.r AS col, a.v AS val FROM {name} a"


def _t_passthrough(expr, binding):
    return expr.body


def register_defaults(catalog):
    """Registry with the standard islands over engines rel, kv, arr."""
    for engine_id, model in (("rel", "relational"), ("kv", "keyvalue"),
                             ("arr", "array")):
        if engine_id not in catalog.engines:
            raise CatalogError(f"catalog is missing engine {engine_id!r}")
        if catalog.engines[engine_id].model != model:
            raise CatalogError(
                f"engine {engine_id!r} must have model {model!r}"
            )
    reg = IslandRegistry()
    reg.add_island(
        Island("relational", "relational", frozenset({"select"}),
               ("rel",), "rel"),
        {"rel": {"select": _t_relational_select}},
    )
    reg.add_island(
        Island("array", "array", frozenset({"subarray", "filter", "agg"}),
               ("arr",), "arr"),
        {"arr": {"subarray": _t_array_subarray, "filter": _t_array_filter,
                 "agg": _t_array_agg}},
    )
    reg.add_island(
        Island("text", "keyvalue", frozenset({"scan", "grep"}),
               ("kv",), "kv"),
        {"kv": {"scan": _t_text_scan, "grep": _t_text_grep}},
    )
    reg.add_island(
        Island("d4m", "keyvalue",
               frozenset({"select", "matmul", "ewise", "transpose"}),
               ("rel", "kv", "arr"), "rel"),
        {
            "kv": {"select": _t_d4m_select_kv, "matmul": _t_d4m_matmul,
                   "ewise": _t_d4m_ewise},
            "rel": {"select": _t_d4m_select_rel,
                    "matmul": _t_d4m_matmul_rel,
                    "transpose": _t_d4m_transpose_rel},
            "arr": {"matmul": _t_d4m_matmul, "ewise": _t_d4m_ewise},
        },
    )
    for engine_id, eng in catalog.engines.items():
        reg.add_island(
            Island(f"raw.{engine_id}", eng.model,
                   frozenset({"native-passthrough"}), (engine_id,), engine_id),
            {engine_id: {"native-passthrough": _t_passthrough}},
        )
    return reg
