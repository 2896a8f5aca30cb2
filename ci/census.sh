#!/bin/sh
# Census of the numbers every ROADMAP re-anchor quotes: lines of Rust and
# `pub fn`s per crate, workspace members, bench mains, `fn execute*`
# definitions in the engine, SCC routines in library code, sites that assign
# a delegated unit's scan estimate, posting-index maintenance routines,
# posting lists in the parallel store, std hash tables on the default hasher, aggregate accumulators, join hash
# tables (a list per key, or a flat table's key-to-group map), mediator files naming the chase `Instance`, homomorphism searches
# in the mediator, resolves of interned rows on the fill and write path and
# in the layouts, row indexes the write path keeps beside the fact base,
# thread-locals of the chase, open-addressing tables, store DDL calls in the
# mediator outside
# its layouts, value rows at the store boundary, `pub fn`s of the
# `Estocada` facade, independently settable options, and panic sites in
# library code.
# Informational: prints, never fails on a count.
set -eu
cd "$(dirname "$0")/.."

rust_files() {
    find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null
}

# Lines of `$1` up to (not including) its first `#[cfg(test)]`.
library_part() {
    awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"
}

echo "== lines of Rust / pub fn, per crate =="
printf '%-28s %8s %8s\n' crate lines 'pub fn'
total=0
for manifest in crates/*/Cargo.toml crates/shims/*/Cargo.toml perfbench/Cargo.toml; do
    dir=$(dirname "$manifest")
    files=$(rust_files "$dir")
    [ -n "$files" ] || continue
    lines=$(cat $files | wc -l)
    fns=$(cat $files | grep -cE '^[[:space:]]*pub fn ' || true)
    printf '%-28s %8d %8d\n' "$dir" "$lines" "$fns"
    total=$((total + lines))
done
for dir in src tests examples; do
    lines=$(cat $(rust_files "$dir") | wc -l)
    printf '%-28s %8d %8s\n' "$dir/" "$lines" -
    total=$((total + lines))
done
printf '%-28s %8d\n' total "$total"
# `pub fn`s in the `impl Estocada` blocks of the mediator: the facade's
# surface, which one `metrics()` snapshot keeps from growing a getter per
# counter.
facade=0
for f in $(rust_files crates/core/src); do
    n=$(awk '/^impl Estocada \{/ { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    pub fn / { n++ }
        END { print n + 0 }' "$f")
    facade=$((facade + n))
done
printf '%-28s %8d\n' 'Estocada pub fns' "$facade"
printf '%-28s %8d\n' 'workspace members' \
    "$(awk '/^members = \[/ { inside = 1; next } inside && /^\]/ { exit } inside { n++ } END { print n + 0 }' Cargo.toml)"
printf '%-28s %8d\n' 'bench mains' "$(ls crates/bench/benches/*.rs | wc -l)"
printf '%-28s %8d\n' executors \
    "$(cat $(rust_files crates/engine/src) | grep -cE '\bfn execute' || true)"
scc=0
for f in $(rust_files crates/*/src); do
    n=$(library_part "$f" | grep -cE '\bfn [a-z_]*(scc|tarjan)' || true)
    scc=$((scc + n))
done
printf '%-28s %8d\n' 'SCC routines' "$scc"
# Assignments to `est_scanned` (`=`, `+=`, or a struct field) in the
# mediator's library code: the scan cost of every delegated unit comes from
# `cost::estimate`, assigned once.
estimators=0
for f in $(rust_files crates/core/src); do
    n=$(library_part "$f" | grep -cE '\best_scanned\b *(\+?=[^=]|:[^:])' || true)
    estimators=$((estimators + n))
done
printf '%-28s %8d\n' 'scan estimators' "$estimators"
# Library definitions of `fn relocate` / `fn rebuild*` outside the chase
# crate (whose fact-base indexes are never swap-removed): every store and
# the write path patch their value→row indexes through one `Postings`.
postings=0
for f in $(rust_files crates/*/src | grep -v '^crates/chase/'); do
    n=$(library_part "$f" | grep -cE '\bfn (relocate|rebuild[a-z_]*)\b' || true)
    postings=$((postings + n))
done
printf '%-28s %8d\n' 'posting indexes' "$postings"
# Library lines of the parallel store naming `Postings` or `relocate`: a
# keyed dataset keeps each key's rows as one block, so a delete fills its
# holes from that block and no posting list follows a moved row.
par_postings=0
for f in $(rust_files crates/parstore/src); do
    n=$(library_part "$f" | grep -cE 'Postings|relocate' || true)
    par_postings=$((par_postings + n))
done
printf '%-28s %8d\n' 'parallel-store posting lists' "$par_postings"
# Library lines naming std's `HashMap`/`HashSet` (keyed SipHash by
# default), `DefaultHasher` or `RandomState`, outside the module that
# defines `FastMap`/`FastSet` over them: every in-process hash table uses
# the one non-keyed hasher, `estocada_pivot::hash`.
std_tables=0
for f in $(rust_files crates/*/src | grep -v '^crates/pivot/src/hash\.rs$'); do
    n=$(library_part "$f" | grep -cE '\b(HashMap|HashSet|DefaultHasher|RandomState)\b' || true)
    std_tables=$((std_tables + n))
done
printf '%-28s %8d\n' 'std hash tables' "$std_tables"
# Library definitions of an aggregate accumulator (`struct …Acc`,
# `struct …Accumulator`), the catalog's `StatsAccumulator` aside: every
# GROUP BY, pushed into a store or run by the mediator, folds through the
# one kernel, `estocada_pivot::kernel`.
group_kernels=0
for f in $(rust_files crates/*/src); do
    n=$(library_part "$f" | grep -E '\bstruct [A-Za-z]*Acc(umulator)?\b' | grep -vc StatsAccumulator || true)
    group_kernels=$((group_kernels + n))
done
printf '%-28s %8d\n' 'group-by kernels' "$group_kernels"
# Library sites in the executor, the kernel and the relational and parallel
# stores that build a join hash table: a map from a key to the rows holding
# it (`let mut …: FastMap<…, Vec<…>`), or from the kernel's packed `Key` to
# the key's group in a flat table (`let mut …: FastMap<Key, u32>`). Every
# hash join builds the kernel's one `JoinTable`, which is the second kind.
hash_joins=0
for f in $(rust_files crates/engine/src crates/pivot/src crates/relstore/src crates/parstore/src); do
    n=$(library_part "$f" | grep -cE '\blet mut [a-z_]+: FastMap<([^=]*, *Vec<|Key, *u32>)' || true)
    hash_joins=$((hash_joins + n))
done
printf '%-28s %8d\n' 'hash joins' "$hash_joins"
# Library call sites outside the pivot crate that build the kernel's
# `JoinTable`: the fact base's fills and the relational store's queries run
# the one select-project-join (`estocada_pivot::spj`), and only the
# executor's `HashJoin` and the parallel store's two-way partitioned join
# build one of their own.
join_builds=0
for f in $(rust_files crates/*/src | grep -v '^crates/pivot/src/'); do
    n=$(library_part "$f" | grep -c 'JoinTable::build(' || true)
    join_builds=$((join_builds + n))
done
printf '%-28s %8d\n' 'join builds outside the kernel' "$join_builds"
# Library files of the mediator that name the chase `Instance`: the fact
# base the fragments are filled and maintained from holds its relations as
# `estocada_pivot::Bag`s, and the chase's instance (labelled nulls, merges,
# provenance) stays inside the chase.
instance_files=0
for f in $(rust_files crates/core/src); do
    if library_part "$f" | grep -qE '\bInstance\b'; then
        instance_files=$((instance_files + 1))
    fi
done
printf '%-28s %8d\n' 'Instance in core' "$instance_files"
# Library call sites in the mediator of the chase's homomorphism searches:
# fills and maintenance run each view's compiled plan, and the oracle is a
# nested loop of the fact base's own.
hom_searches=0
for f in $(rust_files crates/core/src); do
    n=$(library_part "$f" | grep -cE '\b(find_homs|find_homs_delta|find_one_hom)\(' || true)
    hom_searches=$((hom_searches + n))
done
printf '%-28s %8d\n' 'hom searches (core)' "$hom_searches"
# Library calls resolving interned rows back to values (`to_values(`) in the
# fact base, the fill and the write path: a fill and a maintenance delta
# stay interned from the fact base to the stores, and only the layouts
# whose stores hold values resolve, each in its own arm of `layout.rs`.
resolves=0
for f in crates/core/src/factbase.rs crates/core/src/materialize.rs crates/core/src/dml.rs; do
    n=$(library_part "$f" | grep -c 'to_values(' || true)
    resolves=$((resolves + n))
done
printf '%-28s %8d\n' 'fill/delta resolves' "$resolves"
# Library calls resolving interned rows back to values in the placement
# layouts: the relational, parallel and key-value stores hold interned
# cells, so only the document and text arms of `layout::write` resolve.
layout_resolves=$(library_part crates/core/src/layout.rs | grep -c 'to_values(' || true)
printf '%-28s %8d\n' 'layout resolves' "$layout_resolves"
# Non-comment library lines of the mediator naming a row index of the write
# path's own (`Postings`, `Wanted`, `KeyPositions`): the fact base is the one
# copy of a registered table, so a delete is checked against its counts and
# an upsert probes its postings; the write path keeps no rows or key index.
row_indexes=0
for f in $(rust_files crates/core/src); do
    n=$(library_part "$f" | grep -vE '^[[:space:]]*//' | grep -cE '\b(Postings|Wanted|KeyPositions)\b' || true)
    row_indexes=$((row_indexes + n))
done
printf '%-28s %8d\n' 'write-path row indexes' "$row_indexes"
# Statics declared in the library's `thread_local!` blocks in the chase
# crate: the matcher keeps its scratch arena per thread, and every other
# chase buffer lives in the workspace of the call that made it.
chase_locals=0
for f in $(rust_files crates/chase/src); do
    n=$(library_part "$f" | awk '/^[[:space:]]*thread_local! *\{/ { inside = 1; next }
        inside && /^[[:space:]]*\}/ { inside = 0 }
        inside && /^[[:space:]]*(pub(\([a-z]+\))? )?static / { n++ }
        END { print n + 0 }')
    chase_locals=$((chase_locals + n))
done
printf '%-28s %8d\n' 'chase thread-locals' "$chase_locals"
# Library definitions of a backward-shift delete (the probe-distance test
# `next.wrapping_sub(home)`): every open-addressing table of ids found by
# their content is the pivot's one `kernel::IdTable`.
open_tables=0
for f in $(rust_files crates/*/src); do
    n=$(library_part "$f" | grep -c 'wrapping_sub(home)' || true)
    open_tables=$((open_tables + n))
done
printf '%-28s %8d\n' 'open-addressing tables' "$open_tables"
# Library calls of a store's DDL (`create_table`, `drop_table`,
# `create_dataset`, `create_index`, `build_index`, `build_key_index`,
# `key_dataset`) in the mediator outside `layout.rs`: the placement layouts
# are the one place that creates, indexes, keys and drops containers — at a
# fill, at a drop, and when a query's paid scan asks for an index or a key.
store_ddl=0
for f in $(rust_files crates/core/src | grep -v '^crates/core/src/layout\.rs$'); do
    n=$(library_part "$f" | grep -cE '\b(create_table|drop_table|create_dataset|create_index|build_index|build_key_index|key_dataset)\(' || true)
    store_ddl=$((store_ddl + n))
done
printf '%-28s %8d\n' 'store DDL outside layout' "$store_ddl"
# Library lines of the store boundary — the connectors, the fault handling
# around their calls, and the engine's plans and executor — that name a
# value `Tuple`, intern values a slice at a time (`intern_all(`) or a batch
# from value rows (`from_rows(`): a delegated leaf and a BindJoin probe both
# answer in interned cells, and a probe sends its keys interned.
value_rows=0
for f in crates/core/src/connector.rs crates/core/src/resilience.rs \
    crates/engine/src/plan.rs crates/engine/src/vexec.rs; do
    n=$(library_part "$f" | grep -cE '\bTuple\b|intern_all\(|from_rows\(' || true)
    value_rows=$((value_rows + n))
done
printf '%-28s %8d\n' 'value rows at the store boundary' "$value_rows"

# Public fields of `pub struct $2` in file `$1`.
fields() {
    awk -v name="$2" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { exit }
        inside && /^    pub [a-z_]+:/ { n++ }
        END { print n + 0 }' "$1"
}

echo
echo "== options (independently settable values) =="
q=$(fields crates/core/src/evaluator.rs QueryOptions)
r=$(fields crates/chase/src/pacb.rs RewriteConfig)
c=$(fields crates/chase/src/chase.rs ChaseConfig)
e=$(fields crates/engine/src/vexec.rs ExecOptions)
s=$(grep -cE '^    pub fn set_[a-z_]+\(&mut self' crates/core/src/evaluator.rs || true)
printf '%-28s %8d\n' QueryOptions "$q" RewriteConfig "$r" ChaseConfig "$c" ExecOptions "$e" \
    'Estocada::set_*' "$s" total $((q + r + c + e + s))
printf '%-28s %8d\n' 'cargo features' \
    "$(cat Cargo.toml crates/*/Cargo.toml | grep -c '^\[features\]' || true)"
printf '%-28s %8d\n' 'env vars read (library)' \
    "$(cat $(rust_files crates/*/src) | grep -cE 'env::var|env!\(|option_env!\(' || true)"

echo
echo "== unwrap/expect/panic!/unreachable! before the first #[cfg(test)] =="
sites=0
for f in $(rust_files crates/*/src | grep -v '^crates/bench/' | sort); do
    n=$(library_part "$f" | grep -oE '\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(' | wc -l)
    [ "$n" -gt 0 ] || continue
    printf '%-44s %4d\n' "$f" "$n"
    sites=$((sites + n))
done
printf '%-44s %4d\n' total "$sites"
