//! Mini-SQL frontend: conjunctive SELECT-FROM-WHERE blocks (plus
//! `CONTAINS` full-text predicates and GROUP BY / HAVING aggregation),
//! translated into the pivot model.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query    := SELECT item (',' item)* FROM tbl (',' tbl)*
//!             [WHERE cond (AND cond)*]
//!             [GROUP BY sel (',' sel)*]
//!             [HAVING hcond (AND hcond)*]
//! item     := (sel | agg) [AS ident]
//! agg      := (COUNT | SUM | AVG | MIN | MAX) '(' (sel | '*') ')'
//! sel      := alias '.' column
//! tbl      := table alias
//! cond     := sel op (const | sel)
//!           | CONTAINS '(' alias '.' column ',' string ')'
//! hcond    := (agg | sel) op const
//! op       := '=' | '<>' | '<' | '<=' | '>' | '>='
//! const    := integer | float | string
//! ```
//!
//! Equality conditions fold into the conjunctive query (variable
//! unification / constants in atoms); other comparisons become residual
//! predicates carried alongside the rewriting.
//!
//! ## Aggregation semantics
//!
//! An aggregate query keeps the *conjunctive core* (FROM + WHERE)
//! rewritable: the core's head is the GROUP BY columns followed by the
//! distinct aggregate argument columns, and the grouping/aggregation runs
//! on top of whatever rewriting the planner picked — inside the delegated
//! unit when one store covers the whole query, in the mediator otherwise
//! (see [`crate::translate`]; the answers are identical). Conjunctive
//! queries are evaluated under **set semantics**, so aggregates range over
//! the *distinct* core tuples — `COUNT`/`SUM` over a column with
//! duplicates across the grouped rows count each distinct `(group key,
//! argument)` combination once. Aggregate over a key column (e.g.
//! `COUNT(o.oid)`) to count underlying rows; a `COUNT`/`SUM`/`AVG` query
//! whose core head determines no key of some table draws the analyzer's
//! `W007` warning ([`crate::analyze`]) in its report. This makes results
//! independent of which rewriting executes. Bare (non-aggregated) columns
//! in SELECT or HAVING must appear in GROUP BY; violations are typed
//! [`Error::Parse`] errors, not panics.

use crate::connector::Residual;
use crate::error::{Error, Result};
use estocada_engine::{AggFun, AggSpec, CmpOp};
use estocada_pivot::{Atom, Cq, Symbol, Term, Value, Var};
use std::collections::HashMap;

/// Schema information the SQL frontend needs per table.
#[derive(Debug, Clone)]
pub struct SqlTable {
    /// Column names.
    pub columns: Vec<String>,
    /// Key column (needed by `CONTAINS`, which joins through the key).
    pub key_column: Option<String>,
    /// Whether the table declared text columns (enables `CONTAINS`).
    pub has_text: bool,
}

/// Table catalog for parsing.
pub type SqlCatalog = HashMap<String, SqlTable>;

/// A parsed query: pivot CQ + column names + residual comparisons.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParsedQuery {
    /// The conjunctive core.
    pub cq: Cq,
    /// Output column names of the conjunctive core (`alias.column`). For an
    /// aggregate query these are the *inner* head columns (group keys then
    /// aggregate arguments), not the final output columns.
    pub head_names: Vec<String>,
    /// Residual comparisons.
    pub residuals: Vec<Residual>,
    /// Grouping/aggregation to run on top of the rewritten core, if the
    /// query used aggregate functions, GROUP BY, or HAVING.
    pub aggregate: Option<AggregateSpec>,
}

impl ParsedQuery {
    /// A plain conjunctive query (no aggregation), as the document and
    /// pivot frontends produce.
    pub(crate) fn conjunctive(
        cq: Cq,
        head_names: Vec<String>,
        residuals: Vec<Residual>,
    ) -> ParsedQuery {
        ParsedQuery {
            cq,
            head_names,
            residuals,
            aggregate: None,
        }
    }
}

/// Aggregation layered over the conjunctive core of a parsed SQL query.
///
/// Column indexes are positional: the core's head lays out the GROUP BY
/// columns first (`0..group_cols`), then the deduplicated aggregate
/// argument columns. The aggregate operator's *output* lays out the group
/// keys first, then `aggs` in order — `having` and `select` index into
/// that output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregateSpec {
    /// Number of GROUP BY columns (a prefix of the core head; empty for a
    /// global aggregate).
    pub group_cols: usize,
    /// Aggregates, deduplicated by `(function, argument column)`.
    pub aggs: Vec<AggSpec>,
    /// HAVING conjuncts: `(aggregate-output column, op, constant)`.
    pub having: Vec<(usize, CmpOp, Value)>,
    /// Final projection: `(display name, aggregate-output column)` per
    /// SELECT item, in SELECT order.
    pub select: Vec<(String, usize)>,
}

// ---------- Lexer ----------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Op(String),
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '=' => {
                out.push(Tok::Op("=".into()));
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Op("<=".into()));
                    i += 2;
                } else if chars.get(i + 1) == Some(&'>') {
                    out.push(Tok::Op("<>".into()));
                    i += 2;
                } else {
                    out.push(Tok::Op("<".into()));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Op(">=".into()));
                    i += 2;
                } else {
                    out.push(Tok::Op(">".into()));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    s.push(chars[i]);
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(Error::Parse("unterminated string literal".into()));
                }
                i += 1;
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < chars.len()
                    && (chars[i].is_ascii_digit() || (chars[i] == '.' && !is_float))
                {
                    // A '.' is part of the number only when followed by a digit
                    // (so `t.c` never lexes as a float).
                    if chars[i] == '.' {
                        if chars.get(i + 1).map(|c| c.is_ascii_digit()) == Some(true) {
                            is_float = true;
                        } else {
                            break;
                        }
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if is_float {
                    out.push(Tok::Float(text.parse().map_err(|_| {
                        Error::Parse(format!("bad float literal {text}"))
                    })?));
                } else {
                    out.push(Tok::Int(text.parse().map_err(|_| {
                        Error::Parse(format!("bad integer literal {text}"))
                    })?));
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => return Err(Error::Parse(format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

// ---------- Parser ----------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct ColRefAst {
    alias: String,
    column: String,
}

#[derive(Debug, Clone)]
enum CondAst {
    Cmp(ColRefAst, String, RhsAst),
    Contains(ColRefAst, String),
}

/// One SELECT-list item: a plain column or an aggregate call, each with an
/// optional `AS` alias. `Agg(Count, None, _)` is `COUNT(*)`.
#[derive(Debug, Clone)]
enum SelectItemAst {
    Col(ColRefAst, Option<String>),
    Agg(AggFun, Option<ColRefAst>, Option<String>),
}

/// Left-hand side of a HAVING conjunct.
#[derive(Debug, Clone)]
enum HavingLhsAst {
    Col(ColRefAst),
    Agg(AggFun, Option<ColRefAst>),
}

#[derive(Debug, Clone)]
enum RhsAst {
    Const(Value),
    Col(ColRefAst),
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Parse("unexpected end of query".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(Error::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn colref(&mut self) -> Result<ColRefAst> {
        let alias = self.ident()?;
        match self.next()? {
            Tok::Dot => {}
            other => return Err(Error::Parse(format!("expected '.', found {other:?}"))),
        }
        let column = self.ident()?;
        Ok(ColRefAst { alias, column })
    }

    /// Consume `t`, or fail naming what is there instead.
    fn eat(&mut self, t: Tok) -> Result<()> {
        let n = self.next()?;
        if n == t {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected {t:?}, found {n:?}")))
        }
    }

    /// Consume the constant at the cursor, if there is one.
    fn literal(&mut self) -> Option<Value> {
        let v = match self.peek()? {
            Tok::Int(i) => Value::Int(*i),
            Tok::Float(f) => Value::Double(*f),
            Tok::Str(s) => Value::str(s),
            _ => return None,
        };
        self.pos += 1;
        Some(v)
    }

    /// Aggregate function at the cursor? Requires the identifier to be
    /// immediately followed by `(`, so a column alias named `count` still
    /// parses as a plain column reference.
    fn agg_fun_at(&self) -> Option<AggFun> {
        let Some(Tok::Ident(s)) = self.peek() else {
            return None;
        };
        if self.toks.get(self.pos + 1) != Some(&Tok::LParen) {
            return None;
        }
        match s.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFun::Count),
            "SUM" => Some(AggFun::Sum),
            "AVG" => Some(AggFun::Avg),
            "MIN" => Some(AggFun::Min),
            "MAX" => Some(AggFun::Max),
            _ => None,
        }
    }

    /// `FUN '(' (colref | '*') ')'` — the cursor is on the function name.
    fn agg_call(&mut self, fun: AggFun) -> Result<Option<ColRefAst>> {
        self.next()?; // function name
        self.eat(Tok::LParen)?;
        let arg = if self.peek() == Some(&Tok::Star) {
            self.next()?;
            if fun != AggFun::Count {
                return Err(Error::Parse(format!(
                    "{fun:?}(*) is not valid; only COUNT(*)"
                )));
            }
            None
        } else {
            Some(self.colref()?)
        };
        self.eat(Tok::RParen)?;
        Ok(arg)
    }

    fn alias_opt(&mut self) -> Result<Option<String>> {
        if self.at_keyword("AS") {
            self.keyword("AS")?;
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn select_item(&mut self) -> Result<SelectItemAst> {
        if let Some(fun) = self.agg_fun_at() {
            let arg = self.agg_call(fun)?;
            let alias = self.alias_opt()?;
            Ok(SelectItemAst::Agg(fun, arg, alias))
        } else {
            let c = self.colref()?;
            let alias = self.alias_opt()?;
            Ok(SelectItemAst::Col(c, alias))
        }
    }

    fn having_cond(&mut self) -> Result<(HavingLhsAst, CmpOp, Value)> {
        let lhs = if let Some(fun) = self.agg_fun_at() {
            HavingLhsAst::Agg(fun, self.agg_call(fun)?)
        } else {
            HavingLhsAst::Col(self.colref()?)
        };
        let op = match self.next()? {
            Tok::Op(o) => cmp_op(&o)?,
            other => return Err(Error::Parse(format!("expected operator, found {other:?}"))),
        };
        match self.literal() {
            Some(v) => Ok((lhs, op, v)),
            None => Err(Error::Parse(format!(
                "HAVING needs a constant right-hand side, found {:?}",
                self.next()?
            ))),
        }
    }
}

fn cmp_op(op: &str) -> Result<CmpOp> {
    Ok(match op {
        "=" => CmpOp::Eq,
        "<>" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        other => return Err(Error::Parse(format!("unknown operator {other}"))),
    })
}

/// Parse `sql` against `catalog` into a pivot query.
pub fn parse_sql(sql: &str, catalog: &SqlCatalog) -> Result<ParsedQuery> {
    let mut p = Parser {
        toks: lex(sql)?,
        pos: 0,
    };
    p.keyword("SELECT")?;
    let mut items = vec![p.select_item()?];
    while p.peek() == Some(&Tok::Comma) {
        p.next()?;
        items.push(p.select_item()?);
    }
    p.keyword("FROM")?;
    let mut tables: Vec<(String, String)> = Vec::new(); // (table, alias)
    loop {
        let table = p.ident()?;
        let alias = p.ident()?;
        tables.push((table, alias));
        if p.peek() == Some(&Tok::Comma) {
            p.next()?;
        } else {
            break;
        }
    }
    let mut conds: Vec<CondAst> = Vec::new();
    if p.at_keyword("WHERE") {
        p.keyword("WHERE")?;
        loop {
            if p.at_keyword("CONTAINS") {
                p.keyword("CONTAINS")?;
                p.eat(Tok::LParen)?;
                let c = p.colref()?;
                p.eat(Tok::Comma)?;
                let term = match p.next()? {
                    Tok::Str(s) => s,
                    other => {
                        return Err(Error::Parse(format!(
                            "CONTAINS needs a string term, found {other:?}"
                        )))
                    }
                };
                p.eat(Tok::RParen)?;
                conds.push(CondAst::Contains(c, term));
            } else {
                let l = p.colref()?;
                let op = match p.next()? {
                    Tok::Op(o) => o,
                    other => {
                        return Err(Error::Parse(format!("expected operator, found {other:?}")))
                    }
                };
                let rhs = match p.literal() {
                    Some(v) => RhsAst::Const(v),
                    None => RhsAst::Col(p.colref()?),
                };
                conds.push(CondAst::Cmp(l, op, rhs));
            }
            if p.at_keyword("AND") {
                p.keyword("AND")?;
            } else {
                break;
            }
        }
    }
    let mut group_refs: Vec<ColRefAst> = Vec::new();
    if p.at_keyword("GROUP") {
        p.keyword("GROUP")?;
        p.keyword("BY")?;
        group_refs.push(p.colref()?);
        while p.peek() == Some(&Tok::Comma) {
            p.next()?;
            group_refs.push(p.colref()?);
        }
    }
    let mut having_asts: Vec<(HavingLhsAst, CmpOp, Value)> = Vec::new();
    if p.at_keyword("HAVING") {
        p.keyword("HAVING")?;
        loop {
            having_asts.push(p.having_cond()?);
            if p.at_keyword("AND") {
                p.keyword("AND")?;
            } else {
                break;
            }
        }
    }
    if p.peek().is_some() {
        return Err(Error::Parse(format!(
            "trailing tokens after query: {:?}",
            p.peek()
        )));
    }

    let is_aggregate = !group_refs.is_empty()
        || !having_asts.is_empty()
        || items.iter().any(|i| matches!(i, SelectItemAst::Agg(..)));
    if !is_aggregate {
        // Every item is a plain column here.
        let (selects, head_names) = items
            .into_iter()
            .filter_map(|item| match item {
                SelectItemAst::Col(c, alias) => {
                    let name = alias.unwrap_or_else(|| format!("{}.{}", c.alias, c.column));
                    Some((c, name))
                }
                SelectItemAst::Agg(..) => None,
            })
            .unzip();
        return build_cq(selects, head_names, tables, conds, catalog);
    }

    let (inner_refs, spec) = build_aggregate(items, group_refs, having_asts)?;
    let inner_names = inner_refs
        .iter()
        .map(|c| format!("{}.{}", c.alias, c.column))
        .collect();
    let mut parsed = build_cq(inner_refs, inner_names, tables, conds, catalog)?;
    parsed.aggregate = Some(spec);
    Ok(parsed)
}

/// Lay out the conjunctive core's head (group keys, then deduplicated
/// aggregate arguments) and resolve every SELECT/HAVING item to positional
/// indexes over the aggregate operator's output.
fn build_aggregate(
    items: Vec<SelectItemAst>,
    group_refs: Vec<ColRefAst>,
    having_asts: Vec<(HavingLhsAst, CmpOp, Value)>,
) -> Result<(Vec<ColRefAst>, AggregateSpec)> {
    let mut inner: Vec<ColRefAst> = Vec::new();
    let mut inner_idx: HashMap<(String, String), usize> = HashMap::new();
    for g in &group_refs {
        let key = (g.alias.clone(), g.column.clone());
        if let std::collections::hash_map::Entry::Vacant(e) = inner_idx.entry(key) {
            e.insert(inner.len());
            inner.push(g.clone());
        }
    }
    let group_cols = inner.len();

    // A bare column is legal only when it is one of the group keys; its
    // aggregate-output index equals its core-head index.
    let group_pos =
        |c: &ColRefAst, inner_idx: &HashMap<(String, String), usize>| -> Result<usize> {
            match inner_idx.get(&(c.alias.clone(), c.column.clone())) {
                Some(&i) if i < group_cols => Ok(i),
                _ => Err(Error::Parse(format!(
                    "column {}.{} must appear in GROUP BY to be used outside an aggregate",
                    c.alias, c.column
                ))),
            }
        };

    let mut aggs: Vec<AggSpec> = Vec::new();
    let register = |fun: AggFun,
                    arg: Option<&ColRefAst>,
                    inner: &mut Vec<ColRefAst>,
                    inner_idx: &mut HashMap<(String, String), usize>,
                    aggs: &mut Vec<AggSpec>|
     -> usize {
        // COUNT(*) counts core tuples; the engine's Count ignores its input
        // column, so any in-range index works — use 0 (validated non-empty
        // by the caller).
        let col = match arg {
            Some(c) => {
                let key = (c.alias.clone(), c.column.clone());
                *inner_idx.entry(key).or_insert_with(|| {
                    inner.push(c.clone());
                    inner.len() - 1
                })
            }
            None => 0,
        };
        if let Some(i) = aggs.iter().position(|a| a.fun == fun && a.col == col) {
            return i;
        }
        let name = match arg {
            Some(c) => format!("{fun}({}.{})", c.alias, c.column),
            None => "COUNT(*)".to_string(),
        };
        aggs.push(AggSpec { fun, col, name });
        aggs.len() - 1
    };

    let mut select = Vec::new();
    for item in &items {
        match item {
            SelectItemAst::Col(c, alias) => {
                let i = group_pos(c, &inner_idx)?;
                let name = alias
                    .clone()
                    .unwrap_or_else(|| format!("{}.{}", c.alias, c.column));
                select.push((name, i));
            }
            SelectItemAst::Agg(fun, arg, alias) => {
                let a = register(*fun, arg.as_ref(), &mut inner, &mut inner_idx, &mut aggs);
                let name = alias.clone().unwrap_or_else(|| aggs[a].name.clone());
                select.push((name, group_cols + a));
            }
        }
    }
    let mut having = Vec::new();
    for (lhs, op, v) in &having_asts {
        let idx = match lhs {
            HavingLhsAst::Col(c) => group_pos(c, &inner_idx)?,
            HavingLhsAst::Agg(fun, arg) => {
                group_cols + register(*fun, arg.as_ref(), &mut inner, &mut inner_idx, &mut aggs)
            }
        };
        having.push((idx, *op, v.clone()));
    }
    if inner.is_empty() {
        return Err(Error::Parse(
            "COUNT(*) needs at least one GROUP BY column or aggregate argument \
             (the conjunctive core would have an empty head)"
                .into(),
        ));
    }
    Ok((
        inner,
        AggregateSpec {
            group_cols,
            aggs,
            having,
            select,
        },
    ))
}

/// Union-find over (alias, column) cells plus constant binding.
struct Cells {
    parent: Vec<usize>,
    constant: Vec<Option<Value>>,
    index: HashMap<(String, String), usize>,
}

impl Cells {
    fn new() -> Cells {
        Cells {
            parent: Vec::new(),
            constant: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn cell(&mut self, alias: &str, col: &str) -> usize {
        let key = (alias.to_string(), col.to_string());
        if let Some(i) = self.index.get(&key) {
            return *i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.constant.push(None);
        self.index.insert(key, i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) -> Result<()> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(());
        }
        let merged = match (&self.constant[ra], &self.constant[rb]) {
            (Some(x), Some(y)) if x != y => {
                return Err(Error::Parse(
                    "contradictory equality constants in WHERE clause".into(),
                ))
            }
            (Some(x), _) => Some(x.clone()),
            (_, y) => y.clone(),
        };
        self.parent[rb] = ra;
        self.constant[ra] = merged;
        Ok(())
    }

    fn bind_const(&mut self, i: usize, v: Value) -> Result<()> {
        let r = self.find(i);
        match &self.constant[r] {
            Some(existing) if *existing != v => Err(Error::Parse(
                "contradictory equality constants in WHERE clause".into(),
            )),
            _ => {
                self.constant[r] = Some(v);
                Ok(())
            }
        }
    }
}

fn build_cq(
    selects: Vec<ColRefAst>,
    head_names: Vec<String>,
    tables: Vec<(String, String)>,
    conds: Vec<CondAst>,
    catalog: &SqlCatalog,
) -> Result<ParsedQuery> {
    let alias_table: HashMap<String, String> =
        tables.iter().map(|(t, a)| (a.clone(), t.clone())).collect();
    let resolve = |c: &ColRefAst| -> Result<(String, String)> {
        let table = alias_table
            .get(&c.alias)
            .ok_or_else(|| Error::UnknownName(format!("alias {}", c.alias)))?;
        let info = catalog
            .get(table)
            .ok_or_else(|| Error::UnknownName(format!("table {table}")))?;
        if !info.columns.contains(&c.column) {
            return Err(Error::UnknownName(format!("column {}.{}", table, c.column)));
        }
        Ok((table.clone(), c.column.clone()))
    };

    let mut cells = Cells::new();
    // Materialize every column cell of every alias.
    for (table, alias) in &tables {
        let info = catalog
            .get(table)
            .ok_or_else(|| Error::UnknownName(format!("table {table}")))?;
        for col in &info.columns {
            cells.cell(alias, col);
        }
    }

    // First pass: fold equalities.
    let mut residual_asts = Vec::new();
    let mut contains_asts = Vec::new();
    for cond in conds {
        match cond {
            CondAst::Cmp(l, op, rhs) if op == "=" => {
                resolve(&l)?;
                let li = cells.cell(&l.alias, &l.column);
                match rhs {
                    RhsAst::Const(v) => cells.bind_const(li, v)?,
                    RhsAst::Col(r) => {
                        resolve(&r)?;
                        let ri = cells.cell(&r.alias, &r.column);
                        cells.union(li, ri)?;
                    }
                }
            }
            CondAst::Cmp(l, op, rhs) => {
                resolve(&l)?;
                match rhs {
                    RhsAst::Const(v) => residual_asts.push((l, op, v)),
                    RhsAst::Col(_) => {
                        return Err(Error::Parse(
                            "non-equality column-column comparisons are not supported".into(),
                        ))
                    }
                }
            }
            CondAst::Contains(c, term) => {
                resolve(&c)?;
                contains_asts.push((c, term));
            }
        }
    }

    // Assign variables per cell class without a constant.
    let mut class_var: HashMap<usize, Var> = HashMap::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut term_of = |cells: &mut Cells, alias: &str, col: &str| -> Term {
        let i = cells.cell(alias, col);
        let r = cells.find(i);
        if let Some(c) = &cells.constant[r] {
            return Term::Const(c.clone());
        }
        let next_id = class_var.len() as u32;
        let v = *class_var.entry(r).or_insert_with(|| {
            var_names.push(format!("{alias}_{col}"));
            Var(next_id)
        });
        Term::Var(v)
    };

    // Body atoms.
    let mut body = Vec::new();
    for (table, alias) in &tables {
        let info = &catalog[table];
        let args: Vec<Term> = info
            .columns
            .iter()
            .map(|col| term_of(&mut cells, alias, col))
            .collect();
        body.push(Atom::new(table.as_str(), args));
    }
    // CONTAINS atoms join through the table key.
    for (c, term) in contains_asts {
        let table = &alias_table[&c.alias];
        let info = &catalog[table];
        if !info.has_text {
            return Err(Error::Parse(format!(
                "table {table} has no text columns for CONTAINS"
            )));
        }
        let key_col = info
            .key_column
            .as_ref()
            .ok_or_else(|| Error::Parse(format!("table {table} needs a key for CONTAINS")))?;
        let key_term = term_of(&mut cells, &c.alias, key_col);
        // Terms are stored lowercase by the tokenizer.
        let normalized = term.to_lowercase();
        body.push(Atom::new(
            crate::dataset::Dataset::terms_relation(table),
            vec![Term::Const(Value::str(normalized)), key_term],
        ));
    }

    // Head and residuals.
    let mut head = Vec::new();
    for s in &selects {
        resolve(s)?;
        head.push(term_of(&mut cells, &s.alias, &s.column));
    }
    let mut residuals = Vec::new();
    for (l, op, v) in residual_asts {
        let op = cmp_op(&op)?;
        let t = term_of(&mut cells, &l.alias, &l.column);
        let var = match t {
            Term::Var(var) => var,
            Term::Const(c) => {
                // The column was pinned by an equality; evaluate statically.
                if op.eval(&c, &v) {
                    continue;
                }
                return Err(Error::Parse(
                    "WHERE clause is statically unsatisfiable".into(),
                ));
            }
        };
        residuals.push(Residual { var, op, value: v });
    }

    let mut cq = Cq::new(Symbol::intern("Q"), head, body);
    cq.var_names = var_names;
    Ok(ParsedQuery {
        cq,
        head_names,
        residuals,
        aggregate: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> SqlCatalog {
        let mut c = SqlCatalog::new();
        c.insert(
            "Users".into(),
            SqlTable {
                columns: vec!["uid".into(), "name".into(), "tier".into()],
                key_column: Some("uid".into()),
                has_text: false,
            },
        );
        c.insert(
            "Orders".into(),
            SqlTable {
                columns: vec!["oid".into(), "uid".into(), "total".into()],
                key_column: Some("oid".into()),
                has_text: false,
            },
        );
        c.insert(
            "Products".into(),
            SqlTable {
                columns: vec!["pid".into(), "title".into()],
                key_column: Some("pid".into()),
                has_text: true,
            },
        );
        c
    }

    #[test]
    fn single_table_with_constant() {
        let p = parse_sql("SELECT u.name FROM Users u WHERE u.uid = 7", &catalog()).unwrap();
        assert_eq!(p.cq.body.len(), 1);
        assert_eq!(p.cq.body[0].args[0], Term::Const(Value::Int(7)));
        assert_eq!(p.head_names, vec!["u.name"]);
        assert!(p.residuals.is_empty());
        assert!(p.cq.is_safe());
    }

    #[test]
    fn join_unifies_variables() {
        let p = parse_sql(
            "SELECT u.name, o.total FROM Users u, Orders o WHERE u.uid = o.uid",
            &catalog(),
        )
        .unwrap();
        assert_eq!(p.cq.body.len(), 2);
        // Users.uid (pos 0) and Orders.uid (pos 1) share one variable.
        assert_eq!(p.cq.body[0].args[0], p.cq.body[1].args[1]);
    }

    #[test]
    fn range_predicate_becomes_residual() {
        let p = parse_sql("SELECT o.oid FROM Orders o WHERE o.total > 100", &catalog()).unwrap();
        assert_eq!(p.residuals.len(), 1);
        assert_eq!(p.residuals[0].op, CmpOp::Gt);
        assert_eq!(p.residuals[0].value, Value::Int(100));
    }

    #[test]
    fn contains_adds_terms_atom() {
        let p = parse_sql(
            "SELECT p.pid FROM Products p WHERE CONTAINS(p.title, 'Mouse')",
            &catalog(),
        )
        .unwrap();
        assert_eq!(p.cq.body.len(), 2);
        let terms_atom = &p.cq.body[1];
        assert_eq!(
            terms_atom.args[0],
            Term::Const(Value::str("mouse")) // normalized
        );
        // Joined through the key variable.
        assert_eq!(terms_atom.args[1], p.cq.body[0].args[0]);
    }

    #[test]
    fn string_and_float_literals() {
        let p = parse_sql(
            "SELECT u.uid FROM Users u WHERE u.tier = 'gold' AND u.uid >= 1.5",
            &catalog(),
        )
        .unwrap();
        assert_eq!(p.cq.body[0].args[2], Term::Const(Value::str("gold")));
        assert_eq!(p.residuals[0].value, Value::Double(1.5));
    }

    #[test]
    fn contradictory_equalities_rejected() {
        let r = parse_sql(
            "SELECT u.uid FROM Users u WHERE u.uid = 1 AND u.uid = 2",
            &catalog(),
        );
        assert!(matches!(r, Err(Error::Parse(_))));
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        assert!(matches!(
            parse_sql("SELECT x.a FROM Ghost x", &catalog()),
            Err(Error::UnknownName(_))
        ));
        assert!(matches!(
            parse_sql("SELECT u.ghost FROM Users u", &catalog()),
            Err(Error::UnknownName(_))
        ));
    }

    #[test]
    fn static_residual_on_pinned_constant() {
        // uid pinned to 7 and 7 > 5 holds: residual disappears.
        let p = parse_sql(
            "SELECT u.name FROM Users u WHERE u.uid = 7 AND u.uid > 5",
            &catalog(),
        )
        .unwrap();
        assert!(p.residuals.is_empty());
        // 7 > 9 fails statically.
        assert!(parse_sql(
            "SELECT u.name FROM Users u WHERE u.uid = 7 AND u.uid > 9",
            &catalog(),
        )
        .is_err());
    }

    #[test]
    fn self_join_with_two_aliases() {
        let p = parse_sql(
            "SELECT a.uid, b.uid FROM Users a, Users b WHERE a.tier = b.tier",
            &catalog(),
        )
        .unwrap();
        assert_eq!(p.cq.body.len(), 2);
        assert_eq!(p.cq.body[0].args[2], p.cq.body[1].args[2]);
        assert_ne!(p.cq.body[0].args[0], p.cq.body[1].args[0]);
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_sql("SELECT u.uid FROM Users u garbage", &catalog()).is_err());
    }

    #[test]
    fn group_by_with_aggregates() {
        let p = parse_sql(
            "SELECT u.tier, COUNT(o.oid), SUM(o.total) AS revenue \
             FROM Users u, Orders o WHERE u.uid = o.uid \
             GROUP BY u.tier HAVING SUM(o.total) > 100",
            &catalog(),
        )
        .unwrap();
        // Inner head: group key + the two aggregate arguments.
        assert_eq!(p.head_names, vec!["u.tier", "o.oid", "o.total"]);
        let spec = p.aggregate.unwrap();
        assert_eq!(spec.group_cols, 1);
        assert_eq!(spec.aggs.len(), 2);
        assert_eq!(spec.aggs[0].fun, AggFun::Count);
        assert_eq!(spec.aggs[0].col, 1);
        // HAVING SUM(o.total) reuses the SELECT aggregate (dedup).
        assert_eq!(spec.aggs[1].fun, AggFun::Sum);
        assert_eq!(spec.having, vec![(2, CmpOp::Gt, Value::Int(100))]);
        assert_eq!(
            spec.select,
            vec![
                ("u.tier".to_string(), 0),
                ("COUNT(o.oid)".to_string(), 1),
                ("revenue".to_string(), 2),
            ]
        );
    }

    #[test]
    fn count_star_uses_first_inner_column() {
        let p = parse_sql(
            "SELECT u.tier, COUNT(*) FROM Users u GROUP BY u.tier",
            &catalog(),
        )
        .unwrap();
        let spec = p.aggregate.unwrap();
        assert_eq!(spec.aggs.len(), 1);
        assert_eq!(spec.aggs[0].col, 0);
        assert_eq!(spec.aggs[0].name, "COUNT(*)");
        assert_eq!(spec.select[1].0, "COUNT(*)");
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let p = parse_sql("SELECT AVG(o.total) FROM Orders o", &catalog()).unwrap();
        let spec = p.aggregate.unwrap();
        assert_eq!(spec.group_cols, 0);
        assert_eq!(p.head_names, vec!["o.total"]);
        assert_eq!(spec.select, vec![("AVG(o.total)".to_string(), 0)]);
    }

    #[test]
    fn having_on_group_key() {
        let p = parse_sql(
            "SELECT u.tier FROM Users u GROUP BY u.tier HAVING u.tier <> 'basic'",
            &catalog(),
        )
        .unwrap();
        let spec = p.aggregate.unwrap();
        assert!(spec.aggs.is_empty()); // pure GROUP BY = distinct
        assert_eq!(spec.having, vec![(0, CmpOp::Ne, Value::str("basic"))]);
    }

    #[test]
    fn non_grouped_bare_column_is_typed_error() {
        let r = parse_sql(
            "SELECT u.name, COUNT(o.oid) FROM Users u, Orders o \
             WHERE u.uid = o.uid GROUP BY u.tier",
            &catalog(),
        );
        assert!(matches!(r, Err(Error::Parse(ref m)) if m.contains("GROUP BY")));
        // Same for a bare column in HAVING.
        let r = parse_sql(
            "SELECT u.tier FROM Users u GROUP BY u.tier HAVING u.name = 'x'",
            &catalog(),
        );
        assert!(matches!(r, Err(Error::Parse(ref m)) if m.contains("GROUP BY")));
    }

    #[test]
    fn bare_count_star_rejected() {
        assert!(matches!(
            parse_sql("SELECT COUNT(*) FROM Users u", &catalog()),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn star_only_valid_for_count() {
        assert!(matches!(
            parse_sql(
                "SELECT u.tier, SUM(*) FROM Users u GROUP BY u.tier",
                &catalog()
            ),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn aggregate_arg_columns_resolve_against_catalog() {
        assert!(matches!(
            parse_sql(
                "SELECT u.tier, SUM(u.ghost) FROM Users u GROUP BY u.tier",
                &catalog()
            ),
            Err(Error::UnknownName(_))
        ));
    }

    #[test]
    fn alias_named_count_still_parses_as_column() {
        // `count` followed by `.` is an alias, not an aggregate call.
        let mut c = catalog();
        c.insert(
            "Stats".into(),
            SqlTable {
                columns: vec!["count".into()],
                key_column: None,
                has_text: false,
            },
        );
        let p = parse_sql("SELECT count.count FROM Stats count", &c).unwrap();
        assert!(p.aggregate.is_none());
        assert_eq!(p.head_names, vec!["count.count"]);
    }
}
