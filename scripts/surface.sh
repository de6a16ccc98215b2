#!/usr/bin/env bash
# Size and public surface of every workspace crate, so a change can report
# its net LoC, exported-name and public-type counts from two runs (parent
# and change).
#
#   loc    non-blank lines of Rust under the crate's src/, each file cut at
#          its first #[cfg(test)] line; tests/, benches/ and examples/ are
#          not under src/ and are left out too
#   names  names re-exported by `pub use` at the crate root (src/lib.rs);
#          `path::a as b` counts once
#   types  `pub struct|enum|trait|type` items under src/, cut at
#          #[cfg(test)] like loc; counts public types in every module, so
#          deleting one that is not re-exported at the root shows too
#
# Usage: scripts/surface.sh [checkout]   (default: the checkout holding
# this script; pass another checkout, e.g. of the parent commit, to
# measure it with the same rules). Report only: it never judges a number.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

loc() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && NF { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

types() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && /^[[:space:]]*pub (struct|enum|trait|type) / { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

names() {
    [ -f "$1" ] || { echo 0; return; }
    # join each `pub use ...;` statement onto one line, split it at braces
    # and commas, and count the leaves (not the `path::` prefixes)
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^pub use / { grab = 1; stmt = "" }
        grab { stmt = stmt " " $0 }
        grab && /;/ { grab = 0; print stmt }' "$1" |
        sed -e 's/pub use//' -e 's/;.*//' | tr '{},' '\n\n\n' |
        awk '{ gsub(/^[[:space:]]+|[[:space:]]+$/, "") }
             $0 != "" && $0 !~ /::$/ { n++ }
             END { print n + 0 }'
}

printf '%-26s %7s %6s %6s\n' crate loc names types
total_loc=0
total_names=0
total_types=0
for dir in . crates/*; do
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    l=$(loc "$dir/src")
    n=$(names "$dir/src/lib.rs")
    t=$(types "$dir/src")
    printf '%-26s %7d %6d %6d\n' "$name" "$l" "$n" "$t"
    total_loc=$((total_loc + l))
    total_names=$((total_names + n))
    total_types=$((total_types + t))
done
printf '%-26s %7d %6d %6d\n' total "$total_loc" "$total_names" "$total_types"
