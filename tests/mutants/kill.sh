#!/bin/sh
# The kill list: every committed mutant must die.
#
# Each tests/mutants/NN-name.patch re-applies one bug to the current tree.
# Its header names the change in CHANGES.md that fixed or guarded it
# (`Fixed-by:`) and the `cargo test` arguments that must fail on it
# (`Kill:`). For each patch this script checks out HEAD in a fresh git
# worktree, applies the patch there, runs `cargo test -q <Kill>` and
# requires a failure. A patch that no longer applies fails the run too:
# the change that rewrote the code re-expresses the mutant.
#
# Run from anywhere inside the repository: sh tests/mutants/kill.sh
# All worktrees share one CARGO_TARGET_DIR (default target/mutants).
set -u
root=$(git rev-parse --show-toplevel) || exit 2
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"
total=0
killed=0
for patch in "$root"/tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    kill=$(sed -n 's/^Kill: //p' "$patch")
    total=$((total + 1))
    tree=$(mktemp -d)
    git -C "$root" worktree add -q --detach "$tree" HEAD
    if ! git -C "$tree" apply "$patch"; then
        echo "FAIL $name: the patch no longer applies"
    elif (cd "$tree" && eval "cargo test -q $kill") >"$tree.log" 2>&1; then
        echo "FAIL $name: survived \`cargo test $kill\`"
    elif ! grep -q "test result: FAILED" "$tree.log"; then
        echo "FAIL $name: no test failed (the mutant must build and run)"
        tail -n 20 "$tree.log"
    else
        # How it died: the first panic's location and message.
        how=$(grep -m1 -A1 "panicked at" "$tree.log" | tr '\n' ' ')
        echo "killed $name by \`cargo test $kill\`: $how"
        killed=$((killed + 1))
    fi
    git -C "$root" worktree remove --force "$tree"
    rm -f "$tree.log"
done
echo "$killed/$total mutants killed"
test "$killed" -eq "$total"
