#!/usr/bin/env bash
# The binaries' documented usage, run end to end: the Usage lines of the
# package comments of cmd/axmlserver, cmd/axmlrepo, cmd/axmlquery and
# cmd/axmlbench, in the order a reader would follow them, in a temporary
# directory. A line that exits non-zero, or prints less than it should,
# fails the script; change the package comment and this script together.
#
#   make clismoke
#   bash scripts/clismoke.sh
#
# The schema is the running example as doc/SCHEMA.md prints it, so that
# listing must parse too. Needs only go.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/bin/" ./cmd/...)
cd "$tmp"
PATH="$tmp/bin:$PATH"
sed -n '/^# The running example\./,/^```$/p' "$root/doc/SCHEMA.md" | sed '$d' > hotels.schema

# run CMD... runs one documented line, then greps its stdout and stderr
# for every pattern in $EXPECT (separated by '|').
run() {
    echo "+ $*"
    if ! "$@" > out.txt 2>&1; then
        cat out.txt
        echo "clismoke: failed: $*" >&2
        exit 1
    fi
    local IFS='|'
    for want in ${EXPECT:-}; do
        grep -qF -- "$want" out.txt || { cat out.txt; echo "clismoke: '$want' missing from: $*" >&2; exit 1; }
    done
}

Q='/hotels/hotel[name="Best Western"][rating="*****"]/nearby//restaurant[rating="*****"][name=$X] -> $X'

EXPECT="wrote doc.axml" run axmlserver -dump-doc doc.axml
EXPECT="stored demo" run axmlrepo -dir repo put demo doc.axml -schema hotels.schema
EXPECT="demo" run axmlrepo -dir repo list
EXPECT="24 result(s)|explain:|saved materialised demo" run axmlrepo -dir repo query demo "$Q" -save -explain
EXPECT="ok   demo" run axmlrepo -dir repo verify
EXPECT="result(s)|explain:|stats:" run axmlquery -doc doc.axml \
    -query '/hotels/hotel[name="Best Western"]//restaurant[name=$X] -> $X' -explain -stats
EXPECT="E1 " run axmlbench -list
echo "clismoke: ok, every documented usage line ran"
