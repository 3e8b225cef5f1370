#!/usr/bin/env sh
# Non-test Rust lines per workspace crate and for the vendored shims.
#
# Usage:   tools/rust_loc.sh
#
# Counts the physical lines of every `.rs` file under `crates/*/src` and
# `shims/*/src`, each file up to its trailing `#[cfg(test)]` + `mod … {`
# block. A file declared as `#[cfg(test)]` + `mod x;` is test-only and
# is skipped whole. Nothing under `tests/`, `benches/`, `examples/` or
# `perfbench/` is counted. A report, not a gate: it exits 0 whatever the
# counts are.
set -eu

cd "$(dirname "$0")/.."

# The files of the modules that `$1` declares test-only, one a line.
test_only_files() {
    case "$1" in
        */lib.rs | */main.rs | */mod.rs) dir=$(dirname "$1") ;;
        *) dir="${1%.rs}" ;;
    esac
    awk '
        after_cfg && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/ {
            name = $0
            sub(/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+/, "", name)
            sub(/[[:space:]]*;.*$/, "", name)
            print name
        }
        { after_cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
    ' "$1" | while read -r name; do
        printf '%s\n%s\n' "$dir/$name.rs" "$dir/$name/mod.rs"
    done
}

# Non-test lines of every source file under the directory `$1`.
src_lines() {
    files=$(find "$1" -name '*.rs' | sort)
    [ -n "$files" ] || { echo 0; return; }
    skip=$(for f in $files; do test_only_files "$f"; done)
    for f in $files; do
        printf '%s\n' "$skip" | grep -qxF "$f" || printf '%s\n' "$f"
    done | xargs awk '
        FNR == 1 { done_with_file = 0; after_cfg = 0 }
        done_with_file { next }
        after_cfg {
            after_cfg = 0
            if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{/) {
                done_with_file = 1
                next
            }
            n++
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { after_cfg = 1; next }
        { n++ }
        END { print n + 0 }
    '
}

crates_total=0
for dir in crates/*/; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    n=$(src_lines "$dir/src")
    crates_total=$((crates_total + n))
    printf '%-24s %7d\n' "$dir" "$n"
done
printf '%-24s %7d\n' "crates total" "$crates_total"

shims_total=0
for dir in shims/*/; do
    [ -d "${dir}src" ] || continue
    shims_total=$((shims_total + $(src_lines "${dir}src")))
done
printf '%-24s %7d\n' "shims" "$shims_total"
