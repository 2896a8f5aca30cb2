#!/bin/sh
# Census of the numbers every ROADMAP re-anchor quotes: lines of Rust and
# `pub fn`s per crate, workspace members, bench mains, independently
# settable options, and panic sites in library code. Informational: prints,
# never fails on a count.
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
printf '%-28s %8d\n' 'workspace members' \
    "$(awk '/^members = \[/ { inside = 1; next } inside && /^\]/ { exit } inside { n++ } END { print n + 0 }' Cargo.toml)"
printf '%-28s %8d\n' 'bench mains' "$(ls crates/bench/benches/*.rs | wc -l)"

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
