"""The polystore query language: SCOPE blocks, CAST expressions, and one
sub-grammar per island.

Concrete syntax: a scope is ``<island>( ... )``; a cast is
``cast(<scope>, <target-island>[, <alias>][, key=<col-list>])`` and may
stand wherever its target island expects a named object. Keywords are
case-insensitive, identifiers case-sensitive. Degenerate ``raw.*``
scopes carry their body through byte-identically.
"""

from dataclasses import dataclass, field as dc_field

from . import sql
from .canonical import CanonicalTable
from .engines.array import array_op
from .engines.keyvalue import result_tag
from .engines.relational import compile_select
from .errors import (
    CastError, CatalogError, QuerySyntaxError, SchemaError, TypeMismatchError,
    ValidationError,
)
from .migrator import (
    ARRAY, RELATIONAL, apply_cast, array_dims, chain_for, triple_schema,
)
from .values import is_numeric_tag


def _span_field():
    return dc_field(default=None, compare=False, repr=False)


@dataclass
class ObjRef:
    name: str
    span: tuple = _span_field()


@dataclass
class AliasRef:
    name: str  # placeholder of the defining CastNode
    span: tuple = _span_field()


@dataclass
class CastNode:
    inner: object  # ScopeNode
    target_island: str
    alias: object  # user-supplied alias or None
    key: object  # tuple of column names or None
    placeholder: str = ""
    span: tuple = _span_field()


@dataclass
class ScopeNode:
    island: str
    expr: object
    casts: list = dc_field(default_factory=list)
    span: tuple = _span_field()


@dataclass
class QueryAST:
    root: ScopeNode
    text: str = dc_field(default="", compare=False)


@dataclass
class D4mOp:
    op: str  # matmul | ewise | transpose | select
    inputs: list
    params: dict = dc_field(default_factory=dict)
    span: tuple = _span_field()


@dataclass
class TextOp:
    op: str  # scan | grep
    obj: object
    params: dict = dc_field(default_factory=dict)
    span: tuple = _span_field()


@dataclass
class ArrayOp:
    op: str  # subarray | filter | agg
    obj: object
    params: dict = dc_field(default_factory=dict)
    span: tuple = _span_field()


@dataclass
class RawExpr:
    body: str
    span: tuple = _span_field()


ISLAND_SUBGRAMMARS = ("relational", "d4m", "text", "array")
D4M_OPS = ("matmul", "ewise", "transpose", "select")
TEXT_OPS = ("scan", "grep")
ARRAY_OPS = ("subarray", "filter", "agg")
EWISE_OPS = ("plus", "min", "max")


def operator_of(expr):
    """Name of the operator ``expr``, as island operator sets and shims
    name it."""
    if isinstance(expr, sql.SelectStmt):
        return "select"
    if isinstance(expr, (D4mOp, TextOp, ArrayOp)):
        return expr.op
    if isinstance(expr, RawExpr):
        return "native-passthrough"
    raise ValidationError(f"not an island operator expression: {expr!r}")


def operands(expr):
    """Operands of an island operator, in order: a SELECT's table refs, a
    d4m op's inputs (objects, casts and nested ops), or a text or array
    op's object."""
    if isinstance(expr, sql.SelectStmt):
        return expr.table_refs()
    if isinstance(expr, D4mOp):
        return expr.inputs
    if isinstance(expr, (TextOp, ArrayOp)):
        return [expr.obj]
    raise TypeError(f"not an island operator: {expr!r}")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.cur = sql.Cursor(sql.tokenize(text))
        self._cast_counter = 0

    def parse(self):
        root = self.parse_scope()
        self.cur.expect_end()
        return QueryAST(root, self.text)

    def _dotted_ident(self, what):
        tok = self.cur.expect_ident(what)
        name = tok.text
        end = tok.end
        while self.cur.at_op(".") and self.cur.peek(1).kind == "IDENT":
            self.cur.next()
            nxt = self.cur.next()
            name += "." + nxt.text
            end = nxt.end
        return name, (tok.start, end)

    def parse_scope(self):
        island, (start, _) = self._dotted_ident("island name")
        self.cur.expect_op("(")
        casts = []
        if island in ISLAND_SUBGRAMMARS:
            expr = self._parse_body(island, casts)
            close = self.cur.expect_op(")")
        elif island.startswith("raw."):
            expr = self._parse_raw()
            close = self.cur.expect_op(")")
        else:
            self.cur.fail(f"unknown island {island!r}",
                          ISLAND_SUBGRAMMARS + ("raw.<engine>",))
        return ScopeNode(island, expr, casts, span=(start, close.end))

    def _parse_raw(self):
        # the body is the original text up to the balancing close paren;
        # quoted parens are inside string tokens, so they do not count
        start, depth = self.cur.peek().start, 0
        while not (self.cur.at_op(")") and depth == 0):
            tok = self.cur.next()
            if tok.kind == "EOF":
                raise QuerySyntaxError("unbalanced parentheses in raw body",
                                       (start, tok.start))
            if tok.kind == "OP" and tok.text == "(":
                depth += 1
            elif tok.kind == "OP" and tok.text == ")":
                depth -= 1
        end = self.cur.peek().start
        return RawExpr(self.text[start:end], span=(start, end))

    def _parse_body(self, island, casts):
        if island == "relational":
            return sql.parse_select(
                self.cur, cast_parser=lambda cur: self._parse_cast(casts)
            )
        if island == "d4m":
            return self._parse_d4m(casts)
        if island == "text":
            return self._parse_text(casts)
        return self._parse_array(casts)

    # --- cast -------------------------------------------------------------

    def _parse_cast(self, casts):
        start = self.cur.expect_keyword("cast").start
        self.cur.expect_op("(")
        inner = self.parse_scope()
        self.cur.expect_op(",")
        target, _ = self._dotted_ident("target island")
        alias = None
        key = None
        while self.cur.accept_op(","):
            if self.cur.at_keyword("key"):
                self.cur.next()
                self.cur.expect_op("=")
                cols = [self.cur.expect_ident("key column").text]
                while self.cur.accept_op(","):
                    cols.append(self.cur.expect_ident("key column").text)
                key = tuple(cols)
                break
            if alias is not None:
                self.cur.fail("cast already has an alias")
            alias = self.cur.expect_ident("cast alias").text
        close = self.cur.expect_op(")")
        placeholder = alias or f"__cast{self._cast_counter}"
        self._cast_counter += 1
        node = CastNode(inner, target, alias, key, placeholder,
                        span=(start, close.end))
        casts.append(node)
        return node

    def _operand(self, casts, nested=None):
        """Object name, cast, or (when ``nested`` parses them) a sub-op."""
        tok = self.cur.peek()
        if tok.lower == "cast" and self.cur.peek(1).text == "(":
            node = self._parse_cast(casts)
            return AliasRef(node.placeholder, span=node.span)
        if nested and tok.kind == "IDENT" and tok.lower in nested \
                and self.cur.peek(1).text == "(":
            return self._parse_d4m(casts)
        name = self.cur.expect_ident("object name")
        return ObjRef(name.text, span=(name.start, name.end))

    def _range(self):
        lo = self.cur.peek()
        if lo.kind != "SQSTR":
            self.cur.fail("expected single-quoted range bound", {"SQSTR"})
        self.cur.next()
        self.cur.expect_op(":")
        hi = self.cur.peek()
        if hi.kind != "SQSTR":
            self.cur.fail("expected single-quoted range bound", {"SQSTR"})
        self.cur.next()
        return (sql.unquote(lo), sql.unquote(hi))

    def _rowcol_params(self):
        params = {}
        while self.cur.accept_op(","):
            which = self.cur.expect_ident("rows or cols").lower
            if which not in ("rows", "cols") or which in params:
                self.cur.fail("expected rows=... or cols=...")
            self.cur.expect_op("=")
            params[which] = self._range()
        return params

    # --- d4m ---------------------------------------------------------------

    def _parse_d4m(self, casts):
        tok = self.cur.peek()
        if tok.kind != "IDENT" or tok.lower not in D4M_OPS:
            self.cur.fail("expected a d4m operator", D4M_OPS)
        op = self.cur.next().lower
        start = tok.start
        self.cur.expect_op("(")
        if op == "matmul":
            a = self._operand(casts, D4M_OPS)
            self.cur.expect_op(",")
            b = self._operand(casts, D4M_OPS)
            node = D4mOp("matmul", [a, b])
        elif op == "ewise":
            a = self._operand(casts, D4M_OPS)
            self.cur.expect_op(",")
            b = self._operand(casts, D4M_OPS)
            self.cur.expect_op(",")
            ew = self.cur.expect_ident("elementwise op").lower
            if ew not in EWISE_OPS:
                self.cur.fail("expected plus, min, or max", EWISE_OPS)
            node = D4mOp("ewise", [a, b], {"ewise_op": ew})
        elif op == "transpose":
            a = self._operand(casts, D4M_OPS)
            node = D4mOp("transpose", [a])
        else:
            a = self._operand(casts, D4M_OPS)
            params = self._rowcol_params()
            node = D4mOp("select", [a], params)
        close = self.cur.expect_op(")")
        node.span = (start, close.end)
        return node

    # --- text ---------------------------------------------------------------

    def _parse_text(self, casts):
        tok = self.cur.peek()
        if tok.kind != "IDENT" or tok.lower not in TEXT_OPS:
            self.cur.fail("expected a text operator", TEXT_OPS)
        op = self.cur.next().lower
        self.cur.expect_op("(")
        obj = self._operand(casts)
        if op == "scan":
            params = self._rowcol_params()
        else:
            self.cur.expect_op(",")
            needle = self.cur.peek()
            if needle.kind != "SQSTR":
                self.cur.fail("expected single-quoted substring", {"SQSTR"})
            self.cur.next()
            params = {"needle": sql.unquote(needle)}
        close = self.cur.expect_op(")")
        return TextOp(op, obj, params, span=(tok.start, close.end))

    # --- array ----------------------------------------------------------------

    def _int(self):
        neg = self.cur.accept_op("-")
        tok = self.cur.peek()
        if tok.kind != "INT":
            self.cur.fail("expected integer", {"INT"})
        self.cur.next()
        return -int(tok.text) if neg else int(tok.text)

    def _parse_array(self, casts):
        tok = self.cur.peek()
        if tok.kind != "IDENT" or tok.lower not in ARRAY_OPS:
            self.cur.fail("expected an array operator", ARRAY_OPS)
        op = self.cur.next().lower
        self.cur.expect_op("(")
        if op == "agg":
            fn = self.cur.expect_ident("aggregate function").lower
            if fn not in sql.AGG_FNS:
                self.cur.fail("expected COUNT/SUM/AVG/MIN/MAX", sql.AGG_FNS)
            self.cur.expect_op("(")
            attr = self.cur.expect_ident("attribute name").text
            self.cur.expect_op(")")
            self.cur.expect_op(",")
            obj = self._operand(casts)
            by = []
            if self.cur.accept_op(","):
                self.cur.expect_keyword("by")
                self.cur.expect_op("(")
                if not self.cur.at_op(")"):
                    by.append(self.cur.expect_ident("dimension").text)
                    while self.cur.accept_op(","):
                        by.append(self.cur.expect_ident("dimension").text)
                self.cur.expect_op(")")
            params = {"fn": fn, "attr": attr, "by": tuple(by)}
        elif op == "subarray":
            obj = self._operand(casts)
            ranges = []
            while self.cur.accept_op(","):
                dim = self.cur.expect_ident("dimension").text
                self.cur.expect_op("=")
                lo = self._int()
                self.cur.expect_op(":")
                hi = self._int()
                ranges.append((dim, lo, hi))
            if not ranges:
                self.cur.fail("subarray requires at least one dimension range")
            params = {"ranges": tuple(ranges)}
        else:  # filter
            obj = self._operand(casts)
            self.cur.expect_op(",")
            pred = sql.parse_pred(self.cur)
            params = {"pred": pred}
        close = self.cur.expect_op(")")
        return ArrayOp(op, obj, params, span=(tok.start, close.end))


def parse(text):
    """Parse polystore query text into a QueryAST."""
    return _Parser(text).parse()


# --- pretty printing ---------------------------------------------------------

def _pp_range(rng):
    return f"{sql.quote_sq(rng[0])}:{sql.quote_sq(rng[1])}"


def pp_cast(node):
    parts = [pp_scope(node.inner), node.target_island]
    if node.alias:
        parts.append(node.alias)
    text = "cast(" + ", ".join(parts)
    if node.key:
        text += ", key=" + ",".join(node.key)
    return text + ")"


def _pp_leaf(leaf, scope):
    if isinstance(leaf, ObjRef):
        return leaf.name
    if isinstance(leaf, AliasRef):
        for cast in scope.casts:
            if cast.placeholder == leaf.name:
                return pp_cast(cast)
        raise ValidationError(f"undefined cast alias {leaf.name!r}")
    if isinstance(leaf, D4mOp):
        return _pp_d4m(leaf, scope)
    raise TypeError(f"unexpected leaf {leaf!r}")


def _pp_d4m(node, scope):
    args = [_pp_leaf(x, scope) for x in node.inputs]
    if node.op == "ewise":
        args.append(node.params["ewise_op"])
    if node.op == "select":
        for which in ("rows", "cols"):
            if which in node.params:
                args.append(f"{which}={_pp_range(node.params[which])}")
    return f"{node.op}(" + ", ".join(args) + ")"


def _pp_body(scope):
    expr = scope.expr
    if isinstance(expr, RawExpr):
        return expr.body
    if isinstance(expr, sql.SelectStmt):
        def name_fn(ref):
            if ref.cast is not None:
                return pp_cast(ref.cast)
            return ref.name
        return sql.pp_select(expr, table_name_fn=name_fn)
    if isinstance(expr, D4mOp):
        return _pp_d4m(expr, scope)
    if isinstance(expr, TextOp):
        args = [_pp_leaf(expr.obj, scope)]
        if expr.op == "grep":
            args.append(sql.quote_sq(expr.params["needle"]))
        else:
            for which in ("rows", "cols"):
                if which in expr.params:
                    args.append(f"{which}={_pp_range(expr.params[which])}")
        return f"{expr.op}(" + ", ".join(args) + ")"
    if isinstance(expr, ArrayOp):
        p = expr.params
        if expr.op == "agg":
            args = [f"{p['fn']}({p['attr']})", _pp_leaf(expr.obj, scope)]
            if p["by"]:
                args.append("by(" + ", ".join(p["by"]) + ")")
            elif p["by"] == ():
                args.append("by()")
        elif expr.op == "subarray":
            args = [_pp_leaf(expr.obj, scope)]
            args += [f"{d}={lo}:{hi}" for d, lo, hi in p["ranges"]]
        else:
            args = [_pp_leaf(expr.obj, scope), sql.pp_expr(p["pred"])]
        return f"{expr.op}(" + ", ".join(args) + ")"
    raise TypeError(f"unexpected island expr {expr!r}")


def pp_scope(scope):
    return f"{scope.island}({_pp_body(scope)})"


def pretty_print(ast):
    """Canonical text for an AST; parse(pretty_print(a)) equals a."""
    return pp_scope(ast.root)


# --- constants -----------------------------------------------------------------

def collect_constants(ast):
    """Multiset (list) of literal lexemes appearing anywhere in the query."""
    out = []

    def walk_scope(scope):
        expr = scope.expr
        if isinstance(expr, sql.SelectStmt):
            sql.collect_literals(expr, out)
        elif isinstance(expr, D4mOp):
            walk_d4m(expr)
        elif isinstance(expr, TextOp):
            if expr.op == "grep":
                out.append(sql.quote_sq(expr.params["needle"]))
            else:
                ranges(expr.params)
        elif isinstance(expr, ArrayOp):
            p = expr.params
            if expr.op == "subarray":
                for _, lo, hi in p["ranges"]:
                    out.extend([str(lo), str(hi)])
            elif expr.op == "filter":
                sql.collect_literals(p["pred"], out)
        elif isinstance(expr, RawExpr):
            # the body was tokenized with the whole query, so this cannot fail
            for tok in sql.tokenize(expr.body):
                if tok.kind in ("INT", "REAL"):
                    out.append(tok.text)
                elif tok.kind in ("SQSTR", "DQSTR"):
                    out.append(sql.quote_sq(sql.unquote(tok)))
        for cast in scope.casts:
            walk_scope(cast.inner)

    def ranges(params):
        for which in ("rows", "cols"):
            if which in params:
                lo, hi = params[which]
                out.extend([sql.quote_sq(lo), sql.quote_sq(hi)])

    def walk_d4m(node):
        if node.op == "select":
            ranges(node.params)
        for child in node.inputs:
            if isinstance(child, D4mOp):
                walk_d4m(child)

    walk_scope(ast.root)
    return out


# --- validation ------------------------------------------------------------------

@dataclass
class LeafInfo:
    kind: str  # 'object' or 'cast'
    model: str
    schema: list
    engine: object = None  # engine id for objects
    name: object = None  # object name or cast placeholder
    cast: object = None  # defining CastNode for kind='cast'


@dataclass
class ScopeInfo:
    island: str
    model: str
    schema: object  # output schema or None


class ResolvedQuery:
    """A validated AST plus per-leaf and per-scope annotations."""

    def __init__(self, ast, registry, catalog):
        self.ast = ast
        self.registry = registry
        self.catalog = catalog
        self.leaves = {}  # id(node) -> LeafInfo
        self.scopes = {}  # id(scope) -> ScopeInfo

    def leaf(self, node):
        return self.leaves[id(node)]

    def scope_info(self, scope):
        return self.scopes[id(scope)]


def validate(ast, registry, catalog):
    """Resolve every leaf and check operators against island surfaces."""
    res = ResolvedQuery(ast, registry, catalog)
    _validate_scope(ast.root, res)
    return res


def _statically(node, fn, *args):
    """``fn(*args)``, reporting the errors an engine or cast would raise
    on this input as validation errors, with the span of the offending
    node, or of ``node`` where the error names none."""
    try:
        return fn(*args)
    except (CastError, CatalogError, SchemaError, TypeMismatchError) as e:
        raise ValidationError(str(e), e.span or node.span) from e


def _resolve_object(name, island, res, span_owner):
    engine_id = res.catalog.owner(name)
    if engine_id is None:
        raise ValidationError(f"unknown object {name!r}", span_owner.span)
    if engine_id not in island.members:
        raise ValidationError(
            f"object {name!r} lives on engine {engine_id!r}, not a member "
            f"of island {island.name!r}; cast it in", span_owner.span
        )
    engine = res.catalog.engine(engine_id)
    info = LeafInfo("object", engine.model, engine.schema_of(name),
                    engine=engine_id, name=name)
    res.leaves[id(span_owner)] = info
    return info


def _cast_schema(inner, cast, target_model, catalog):
    """Schema of a cast result: the chain the executor runs for the cast,
    applied to an empty table of the inner scope's schema. A result in
    the array model must also have the dimensions migration loads."""
    if (inner.model == RELATIONAL and target_model != RELATIONAL
            and not cast.key):
        raise CastError(
            f"cast from relational to {target_model} requires key=..."
        )
    schema = _in_model(inner, target_model, catalog, cast.key)
    if target_model == ARRAY:
        array_dims(schema)
    return schema


def _resolve_cast(cast, enclosing_island, res):
    inner = _validate_scope(cast.inner, res)
    if inner.schema is None:
        raise ValidationError(
            "a raw scope result has no schema and cannot be cast", cast.span
        )
    target = res.registry.island(cast.target_island)
    if target is None:
        raise ValidationError(f"unknown island {cast.target_island!r}",
                              cast.span)
    if target.model != enclosing_island.model:
        raise ValidationError(
            f"cast to island {cast.target_island!r} (model {target.model}) "
            f"used inside island {enclosing_island.name!r} "
            f"(model {enclosing_island.model})", cast.span
        )
    schema = _statically(cast, _cast_schema, inner, cast, target.model,
                         res.catalog)
    info = LeafInfo("cast", target.model, schema, name=cast.placeholder,
                    cast=cast)
    res.leaves[id(cast)] = info
    return info


def _check_op(island, op):
    if op not in island.operators:
        raise ValidationError(
            f"operator {op!r} is not in island {island.name!r} "
            f"(operators: {sorted(island.operators)})"
        )


def read_chain(info, model, catalog, key=None):
    """Cast specs reading ``info``, an operand or a cast's inner scope, in
    ``model``; every plan runs the chain that validation types it with."""
    dims = maps = None
    if isinstance(info, LeafInfo) and info.kind == "object" \
            and info.model == ARRAY:
        arr = catalog.engine(info.engine).array(info.name)
        dims, maps = [n for n, _ in arr.dims], arr.dim_maps
    return chain_for(info.model, model, key=key, dim_cols=dims,
                     dim_maps=maps)


def _in_model(info, model, catalog, key=None):
    """Schema of ``info`` read in ``model``: its read chain applied to an
    empty table of its schema."""
    chain = read_chain(info, model, catalog, key)
    if not chain:
        return info.schema
    table = CanonicalTable(info.schema)
    for spec in chain:
        table, _ = apply_cast(table, spec)
    return table.schema


def _validate_leaf(leaf, island, scope, res):
    """Info of an operand that is no nested op: an object name, a cast
    alias, or a SELECT's table ref, which names an object or holds a
    cast."""
    cast = None
    if isinstance(leaf, AliasRef):
        defs = [c for c in scope.casts if c.placeholder == leaf.name]
        if len(defs) != 1:
            raise ValidationError(
                f"cast alias {leaf.name!r} not uniquely defined", leaf.span)
        cast = defs[0]
    elif isinstance(leaf, sql.TableRef):
        cast = leaf.cast
    if cast is None:
        return _resolve_object(leaf.name, island, res, leaf)
    info = res.leaves[id(cast)]
    res.leaves[id(leaf)] = info
    return info


def _validate_scope(scope, res):
    island = res.registry.island(scope.island)
    if island is None:
        raise ValidationError(f"unknown island {scope.island!r}", scope.span)
    for cast in scope.casts:
        _resolve_cast(cast, island, res)
    if isinstance(scope.expr, RawExpr):
        _check_op(island, "native-passthrough")
        schema = None
    else:
        schema = _validate_op(scope.expr, island, scope, res)
    info = ScopeInfo(scope.island, island.model, schema)
    res.scopes[id(scope)] = info
    return info


def _validate_op(expr, island, scope, res):
    """Output schema of the island operator ``expr``. Its operands are
    resolved in order, a nested d4m op validated in its turn, and each is
    read in the island's model; MATMUL and EWISE reject an operand that
    is not numeric before they resolve the next."""
    op = operator_of(expr)
    _check_op(island, op)
    leaves = operands(expr)
    schemas = []
    for leaf in leaves:
        if isinstance(leaf, D4mOp):
            schema = _validate_op(leaf, island, scope, res)
        else:
            info = _validate_leaf(leaf, island, scope, res)
            schema = _statically(leaf, _in_model, info, island.model,
                                 res.catalog)
        if op in ("matmul", "ewise") and not is_numeric_tag(schema[2][1]):
            raise ValidationError(f"{op} requires numeric values", leaf.span)
        schemas.append(schema)
    if isinstance(expr, sql.SelectStmt):
        tables = {ref.binding: schema for ref, schema in zip(leaves, schemas)}
        return _statically(expr, compile_select, expr, tables).schema
    if isinstance(expr, D4mOp):
        tags = [schema[2][1] for schema in schemas]
        return triple_schema(result_tag(*tags) if len(tags) == 2 else tags[0])
    if isinstance(expr, TextOp):
        return list(schemas[0])
    info = res.leaf(expr.obj)
    if info.kind == "object":
        name = info.name
        ndims = len(res.catalog.engine(info.engine).array(name).dims)
    else:
        # a cast result reaches the array engine as a temporary that the
        # plan names and whose first two columns are its dimensions
        name, ndims = None, 2
    schema, _ = _statically(expr, array_op, expr.op, expr.params, name,
                            schemas[0], ndims)
    return schema
