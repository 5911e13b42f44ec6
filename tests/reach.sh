#!/bin/sh
# The reach probe: which library functions does only a test run, and which
# does nothing run at all?
#
# It checks out HEAD in a fresh git worktree and inserts, at the head of
# every non-test fn body in crates/*/src (each file read up to its first
# `#[cfg(test)]`, as the CI size caps count it), a once-per-process record
# of that function's name. The record is written to the file `$REACH_LOG`
# names, and costs one atomic load per later call. The worktree then runs:
#
#   tests:    cargo test -q --workspace
#   programs: the four benchmark workloads at --trace 0 and --trace 1
#             (seed 1, 3 s), `figures all` at the CI's scale, the CI's
#             failing `figures --csv` run, and every example
#
# and the script prints two lists: functions only the tests reached, and
# functions nothing reached. Each listed function needs a line in
# tests/reach.allow (`<function> <reason>`); the run fails on a listed
# function without one, on an allow line whose function is no longer
# listed, and on a test that fails in the instrumented tree.
#
# Run from anywhere inside the repository: sh tests/reach.sh
# The build uses CARGO_TARGET_DIR (default target/reach). It takes about
# ten minutes from a cold target on 2 vCPUs.
set -u
root=$(git rev-parse --show-toplevel) || exit 2
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/reach}"
tree=$(mktemp -d)
out=$(mktemp -d)
git -C "$root" worktree add -q --detach "$tree" HEAD || exit 2
cleanup() {
    git -C "$root" worktree remove --force "$tree"
    rm -rf "$out"
}
trap cleanup EXIT

# Instrument. Each record names `file:Self::Trait::fn` (Self and Trait
# only where the fn sits in an impl or trait block; a repeated name gets
# `#2`, `#3`, ...). The probe is put on the line of the body's `{`, so
# every line number stays where it was. `const fn`s are left alone.
find "$tree"/crates/*/src -name '*.rs' | sort | perl -e '
my $probe = q{static REACH: ::std::sync::Once = ::std::sync::Once::new(); REACH.call_once(|| if let Some(p) = ::std::env::var_os("REACH_LOG") { if let Ok(mut f) = ::std::fs::OpenOptions::new().create(true).append(true).open(p) { let _ = ::std::io::Write::write_all(&mut f, b"%s\n"); } });};
my $tree = shift @ARGV;
while (my $path = <STDIN>) {
    chomp $path;
    open my $fh, "<", $path or die "$path: $!";
    my $src = do { local $/; <$fh> };
    close $fh;
    (my $rel = $path) =~ s/^\Q$tree\E\///;
    my $cut = index($src, "#[cfg(test)]");
    $cut = $cut < 0 ? length $src : rindex($src, "\n", $cut) + 1;
    my ($body, $rest) = (substr($src, 0, $cut), substr($src, $cut));
    my $out = "";
    my (@scopes, @toks, %seen);
    my ($pending_fn, $fn_skip, $fn_parens, $header, $parens) = (undef, 0, 0, undef, 0);
    pos($body) = 0;
    while (pos($body) < length $body) {
        my $at = pos($body);
        my $fresh = 0;
        if ($body =~ /\G\/\/[^\n]*/gc) {}
        elsif ($body =~ /\G\/\*/gc) {
            my $d = 1;
            while ($d > 0 && $body =~ /\G(?:(\/\*)|(\*\/)|.)/gcs) { $d++ if $1; $d-- if $2 }
        }
        elsif ($body =~ /\Gb?r(#*)"/gc) {
            my $hashes = $1;
            $body =~ /\G.*?"$hashes/gcs;
        }
        elsif ($body =~ /\Gb?"(?:\\.|[^\\"])*"/gcs) {}
        elsif ($body =~ /\Gb?\x27(?:\\.[^\x27]*|[^\\\x27])\x27/gc) {}
        elsif ($body =~ /\G([A-Za-z_][A-Za-z0-9_]*)/gc) {
            my $id = $1;
            if ($id eq "fn" && $body =~ /\G\s+([A-Za-z_][A-Za-z0-9_]*)/) {
                my @before = grep { !/^(unsafe|async|extern)$/ } @toks;
                $pending_fn = $1;
                $fn_skip = @before && $before[-1] eq "const";
                $fn_parens = $parens;
            } elsif (($id eq "impl" || $id eq "trait") && !defined $pending_fn
                     && (!@toks || $toks[-1] =~ /^([;{}\]\(]|pub|unsafe)$/)) {
                $header = "$id ";
                $fresh = 1;
            }
            push @toks, $id;
        }
        else {
            $body =~ /\G(.)/gcs;
            my $c = $1;
            if ($c eq "(" || $c eq "[") { $parens++ }
            elsif ($c eq ")" || $c eq "]") { $parens-- }
            elsif ($c eq ";" && defined $pending_fn && $parens == $fn_parens) { $pending_fn = undef }
            elsif ($c eq ";" && defined $header && $parens == 0) { $header = undef }
            elsif ($c eq "{" && defined $pending_fn && $parens == $fn_parens) {
                my $name = $pending_fn;
                $pending_fn = undef;
                my ($owner) = grep { defined } map { $_->{owner} } reverse @scopes;
                push @scopes, { owner => undef };
                $out .= "{";
                next if $fn_skip;
                my $id = "$rel:" . (defined $owner ? "${owner}::" : "") . $name;
                $id .= "#" . $seen{$id} if $seen{$id}++;
                print "$id\n";
                $out .= sprintf($probe, $id);
                next;
            }
            elsif ($c eq "{") {
                my $owner;
                if (defined $header) {
                    (my $h = $header) =~ s/\s+/ /g;
                    $h =~ s/^(impl|trait) //;
                    my $trait_like = $1 eq "trait";
                    $h =~ s/^<(?:[^<>]|<(?:[^<>]|<[^<>]*>)*>)*>\s*// if $h =~ /^</;
                    $h =~ s/\s+where\s.*$//;
                    my $strip = sub { my $t = shift; $t =~ s/^\s+|\s+$//g; $t =~ s/^(?:[A-Za-z_0-9]+::)+//; $t =~ s/\s//g; $t };
                    if (!$trait_like && $h =~ /^(.*?)\s+for\s+(.*)$/) {
                        my ($t, $s) = ($strip->($1), $strip->($2));
                        $s =~ s/<.*$//;
                        $owner = "${s}::$t";
                    } else {
                        $h =~ s/:.*$// if $trait_like;
                        $owner = $strip->($h);
                        $owner =~ s/<.*$//;
                    }
                    $header = undef;
                }
                push @scopes, { owner => $owner };
            }
            elsif ($c eq "}") { pop @scopes }
            push @toks, $c unless $c =~ /\s/;
        }
        my $text = substr($body, $at, pos($body) - $at);
        $header .= $text if defined $header && !$fresh && $text ne "{";
        $out .= $text;
        splice(@toks, 0, @toks - 8) if @toks > 16;
    }
    open $fh, ">", $path or die "$path: $!";
    print $fh $out, $rest;
    close $fh;
}
' "$tree" >"$out/all" || exit 2
sort -o "$out/all" "$out/all"
echo "reach: $(wc -l <"$out/all") fn bodies instrumented"

run() {
    log=$1
    shift
    echo "reach [$log]: $*" >&2
    if ! (cd "$tree" && REACH_LOG="$out/$log" "$@") >"$out/last.log" 2>&1; then
        echo "reach [$log]: exited non-zero; its last lines:" >&2
        tail -n 3 "$out/last.log" >&2
    fi
}
bench="cargo run -q --release --manifest-path benchmark/Cargo.toml --"
figures="cargo run -q --release -p bwd-bench --bin figures --"
run tests cargo test -q --workspace --no-fail-fast
status=0
if grep -q "test result: FAILED" "$out/last.log"; then
    echo "FAIL a test failed in the instrumented tree: the lists are incomplete"
    status=1
fi
for w in probe_net scan_ar scan_classic mixed_streams; do
    for t in 0 1; do
        run programs $bench run --workload $w --seed 1 --seconds 3 --trace $t
    done
done
run programs $figures all --scale-micro 200000 --scale-spatial 300000 --sf 0.02
run programs sh -c "! $figures fig1 --csv /dev/null/x" # must fail, as in CI
for ex in "$tree"/examples/*.rs; do
    name=$(basename "$ex" .rs)
    case $name in
        priority_scheduling) args=50000 ;;
        *) args= ;;
    esac
    run programs env TMPDIR="$out" cargo run -q --release --example "$name" -- $args
done

sort -u "$out/tests" 2>/dev/null >"$out/t"
sort -u "$out/programs" 2>/dev/null >"$out/p"
comm -23 "$out/t" "$out/p" | comm -12 - "$out/all" >"$out/tests-only"
sort -u "$out/t" "$out/p" | comm -23 "$out/all" - >"$out/unreached"
echo "tests-only ($(wc -l <"$out/tests-only")):"
sed 's/^/  /' "$out/tests-only"
echo "unreached ($(wc -l <"$out/unreached")):"
sed 's/^/  /' "$out/unreached"

# Every listed function has an allow line, and every allow line a listed
# function.
sort -u "$out/tests-only" "$out/unreached" >"$out/listed"
sed -e '/^#/d' -e '/^[[:space:]]*$/d' "$root/tests/reach.allow" | awk '{print $1}' | sort >"$out/allowed"
for f in $(comm -23 "$out/listed" "$out/allowed"); do
    echo "FAIL $f: listed, but tests/reach.allow gives no reason"
    status=1
done
for f in $(comm -13 "$out/listed" "$out/allowed"); do
    echo "FAIL $f: allowed in tests/reach.allow, but no longer listed"
    status=1
done
test "$status" -eq 0 && echo "reach: every listed function has its reason"
exit "$status"
