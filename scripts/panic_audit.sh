#!/usr/bin/env bash
# Panic audit: deny new `unwrap()` / `expect()` / `panic!` /
# `unreachable!` / `todo!` / `unimplemented!` sites in the library
# crates. The library's contract (README "Robustness & recovery") is
# that any input produces a typed `KraftwerkError`, never a crash, so
# every potential panic site has to be a deliberate, reviewed invariant.
#
# Mechanics: for every library source file the script counts potential
# panic sites outside `#[cfg(test)]` modules (the repo convention puts
# the test module at the bottom of the file, so everything from that
# attribute down is skipped) and outside `//` comments, then compares
# against scripts/panic-allowlist.txt. A file above its allowance fails
# the audit, and so does a stale allowance: a file below its allowance,
# or an entry for a file with no sites at all. The allowance is ratcheted
# down (or the entry deleted) in the same change that removes the sites.
# The bench harness and the binaries are exempt — they are
# applications, where panicking on a broken experiment is correct.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=scripts/panic-allowlist.txt
PATTERN='\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\('

count_sites() { # count_sites <file>
    awk '/^#\[cfg\(test\)\]$/{exit} {print}' "$1" \
        | sed 's|//.*||' \
        | grep -cE "$PATTERN" || true
}

fail=0
checked=0
while IFS= read -r file; do
    checked=$((checked + 1))
    n=$(count_sites "$file")
    entry=$(awk -v f="$file" '$1 == f {print $2}' "$ALLOWLIST")
    allowed=${entry:-0}
    if [ "$n" -gt "$allowed" ]; then
        echo "panic-audit: $file has $n potential panic sites (allowance $allowed)" >&2
        awk '/^#\[cfg\(test\)\]$/{exit} {print NR": "$0}' "$file" \
            | sed 's|//.*||' | grep -E "$PATTERN" >&2 || true
        fail=1
    elif [ -n "$entry" ] && [ "$n" -eq 0 ]; then
        echo "panic-audit: $file has no potential panic sites — delete its entry in $ALLOWLIST" >&2
        fail=1
    elif [ "$n" -lt "$allowed" ]; then
        echo "panic-audit: $file is below its allowance ($n < $allowed) — ratchet $ALLOWLIST down" >&2
        fail=1
    fi
done < <(find crates/*/src src/lib.rs -name '*.rs' -not -path 'crates/bench/*' | sort)

# Allowlisted files must exist — a stale entry hides a rename.
while read -r file _; do
    case "$file" in ''|'#'*) continue ;; esac
    if [ ! -f "$file" ]; then
        echo "panic-audit: allowlist entry $file does not exist" >&2
        fail=1
    fi
done < "$ALLOWLIST"

if [ "$fail" -ne 0 ]; then
    echo "panic-audit: FAILED — convert new sites to KraftwerkError, justify them in $ALLOWLIST, or ratchet stale allowances down" >&2
    exit 1
fi
echo "panic-audit: OK ($checked files)"
