#!/usr/bin/env sh
# Byte-identity of two `ftsched` binaries: both run the same commands,
# each in its own temporary directory under the same file names, and
# every file and every stdout they produce must be equal.
#
# Usage:   tools/same_outputs.sh OLD_FTSCHED NEW_FTSCHED [TASKS]
# Example: tools/same_outputs.sh /tmp/parent/ftsched target/release/ftsched 2000
#
# The commands, with TASKS = 100000 unless given:
#   generate --family layered --tasks TASKS --seed 7
#   schedule --procs 20 --seed 11 for every algorithm key at ε = 0, 1, 2
#   on each bundle:
#     simulate --replications 50 --crashes 1 --seed 5 --threads 2
#     simulate --random-failures 1 --seed 3 --gantt
#   (the Gantt text prints every executed replica's times)
#   on each bundle with a matched table:
#     reliability --p 0.2 --samples 200 --threads 2
#   campaign --preset ci-smoke --quick
# Each step is compared as soon as both binaries ran it, and a bundle is
# deleted once its step is done, so at 100000 tasks the disk holds two
# bundles (about 130 MB each) at a time.
#
# Exits 0 when everything matched, 1 naming the first difference, and
# 2 on a usage error or a command that failed.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 OLD_FTSCHED NEW_FTSCHED [TASKS]" >&2
    exit 2
fi
for bin in "$1" "$2"; do
    if [ ! -x "$bin" ] || [ -d "$bin" ]; then
        echo "same_outputs: $bin is not an executable file" >&2
        exit 2
    fi
done
abs() { (cd "$(dirname "$1")" && printf '%s/%s\n' "$(pwd)" "$(basename "$1")"); }
old=$(abs "$1")
new=$(abs "$2")
tasks=${3:-100000}
algorithms="ftsa mc-ftsa mc-ftsa-bn ftbar p-ftsa ftsa-mst mc-ftbar"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/old" "$work/new"

# Runs `BIN ARGS…` in the current directory; a failure ends the script.
run() {
    "$@" || {
        echo "same_outputs: failed: $*" >&2
        exit 2
    }
}

# Fails unless each named file is equal in both directories.
same() {
    for f in "$@"; do
        if ! cmp "$work/old/$f" "$work/new/$f"; then
            echo "same_outputs: $f differs" >&2
            exit 1
        fi
    done
}

# `both NAME ARGS…`: each binary runs `ARGS…` in its directory with
# stdout to NAME.out; the two stdouts must be equal.
both() {
    name=$1
    shift
    (cd "$work/old" && run "$old" "$@" > "$name.out")
    (cd "$work/new" && run "$new" "$@" > "$name.out")
    same "$name.out"
    rm -f "$work/old/$name.out" "$work/new/$name.out"
}

both generate generate --family layered --tasks "$tasks" --seed 7 --out graph.json
same graph.json
steps=1
for alg in $algorithms; do
    for eps in 0 1 2; do
        b="bundle-$alg-e$eps.json"
        both "schedule-$alg-e$eps" schedule --graph graph.json --procs 20 --epsilon "$eps" \
            --algorithm "$alg" --seed 11 --out "$b"
        same "$b"
        both "simulate-$alg-e$eps" simulate --bundle "$b" --replications 50 --crashes 1 \
            --seed 5 --threads 2
        both "gantt-$alg-e$eps" simulate --bundle "$b" --random-failures 1 --seed 3 --gantt
        steps=$((steps + 3))
        if grep -q '"Matched"' "$work/old/$b"; then
            both "reliability-$alg-e$eps" reliability --bundle "$b" --p 0.2 --samples 200 \
                --threads 2
            steps=$((steps + 1))
        fi
        rm -f "$work/old/$b" "$work/new/$b"
    done
done
both campaign campaign --preset ci-smoke --quick --out campaign
steps=$((steps + 1))
(cd "$work/old/campaign" && ls) > "$work/old.files"
(cd "$work/new/campaign" && ls) > "$work/new.files"
if ! cmp -s "$work/old.files" "$work/new.files"; then
    echo "same_outputs: campaign wrote different files:" >&2
    diff "$work/old.files" "$work/new.files" >&2 || true
    exit 1
fi
while read -r f; do
    same "campaign/$f"
done < "$work/old.files"
echo "same_outputs: $steps steps at $tasks tasks, every file and stdout identical"
