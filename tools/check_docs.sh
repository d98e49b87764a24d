#!/usr/bin/env bash
# Docs CI: keeps README/docs/ROADMAP honest without any external tooling.
#
#   1. Link check     — every relative markdown link resolves to a file.
#   2. Snippet check  — every `build/<tool>` a doc names has a source file,
#                       and every --flag on that line exists verbatim in
#                       that tool's source (so docs can't document flags
#                       that were renamed or never existed).
#   3. Sync check     — the example JSONL files embedded in
#                       docs/PROTOCOL.md match the committed files in
#                       examples/ line for line.
#   4. Knob check     — every field of struct ServiceOptions has a row in
#                       docs/TUNING.md's ServiceOptions table, and every
#                       row names a field that exists (deleted knobs cannot
#                       leave stale rows, new ones cannot land undocumented).
#
# Usage: tools/check_docs.sh   (from anywhere; exits 1 on any failure)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

docs="README.md ROADMAP.md"
for f in docs/*.md; do docs="$docs $f"; done

fail=0
err() { echo "check_docs: $1" >&2; fail=1; }

# --- 1. relative markdown links resolve ------------------------------------
for doc in $docs; do
  dir="$(dirname "$doc")"
  for target in $(grep -oE '\]\([^) ]+\)' "$doc" | sed 's/^](//; s/)$//'); do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      err "$doc links to missing file '$target'"
    fi
  done
done

# --- 2. documented tools and flags exist -----------------------------------
source_for_tool() {
  case "$1" in
    bench_*)   echo "bench/${1#bench_}.cpp" ;;
    example_*) echo "examples/${1#example_}.cpp" ;;
    *_test)    echo "tests/$1.cpp" ;;
    *)         echo "tools/$1.cpp" ;;
  esac
}

for doc in $docs; do
  grep -nE 'build/[A-Za-z0-9_]+' "$doc" | while IFS=: read -r lineno line; do
    # A line may invoke several tools (pipes); every named tool must have
    # a source, and every --flag must exist in at least one of them.
    srcs=""
    for tool in $(echo "$line" | grep -oE 'build/[A-Za-z0-9_]+' | sort -u); do
      tool="${tool#build/}"
      src="$(source_for_tool "$tool")"
      if [ ! -f "$src" ]; then
        echo "check_docs: $doc:$lineno names 'build/$tool' but $src does not exist" >&2
        touch "$repo_root/.check_docs_failed"
      else
        srcs="$srcs $src"
      fi
    done
    [ -z "$srcs" ] && continue
    for flag in $(echo "$line" | grep -oE '\-\-[a-z][a-z0-9-]*'); do
      if ! grep -Fq -- "$flag" $srcs; then
        echo "check_docs: $doc:$lineno flag '$flag' not found in:$srcs" >&2
        touch "$repo_root/.check_docs_failed"
      fi
    done
  done
done
if [ -e .check_docs_failed ]; then rm -f .check_docs_failed; fail=1; fi

# --- 3. embedded example JSONL stays in sync (both directions) -------------
# Every committed example line must appear in docs/PROTOCOL.md ...
for example in examples/batch_queries.jsonl examples/resnet_block.jsonl; do
  while IFS= read -r line; do
    [ -z "$line" ] && continue
    if ! grep -Fxq -- "$line" docs/PROTOCOL.md; then
      err "docs/PROTOCOL.md is out of sync with $example (missing: $line)"
    fi
  done < "$example"
done
# ... and every example-shaped line embedded in PROTOCOL.md (a complete
# one-line model/layer/workload/network object — the kinds the example
# files hold; hand-written request/response illustrations use other keys
# or span lines) must still exist in a committed example file, so deleting
# an example line cannot leave a stale documented copy behind.
grep -E '^\{"(model|layer|workload|network)": .*\}$' docs/PROTOCOL.md |
  while IFS= read -r line; do
    if ! grep -Fxq -- "$line" examples/batch_queries.jsonl &&
       ! grep -Fxq -- "$line" examples/resnet_block.jsonl; then
      echo "check_docs: docs/PROTOCOL.md embeds a line no example file contains: $line" >&2
      touch "$repo_root/.check_docs_failed"
    fi
  done
if [ -e .check_docs_failed ]; then rm -f .check_docs_failed; fail=1; fi

# --- 4. ServiceOptions fields and TUNING.md's table agree -------------------
options_header=src/driver/explore_service.hpp
fields="$(awk '/^struct ServiceOptions \{/ { inside = 1; next }
               inside && /^\};/ { inside = 0 }
               inside' "$options_header" |
  grep -vE '^[[:space:]]*//' |
  sed -nE 's/^[[:space:]]*[A-Za-z_][A-Za-z0-9_:<>, ]*[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*(=[^;]*)?;.*$/\1/p')"
rows="$(awk '/^## `driver::ServiceOptions`/ { inside = 1; next }
             inside && /^## / { inside = 0 }
             inside' docs/TUNING.md |
  sed -nE 's/^\| `([A-Za-z_][A-Za-z0-9_]*)` \|.*$/\1/p')"
[ -z "$fields" ] && err "found no ServiceOptions fields in $options_header"
for field in $fields; do
  echo "$rows" | grep -qx -- "$field" ||
    err "ServiceOptions::$field has no row in docs/TUNING.md"
done
for row in $rows; do
  echo "$fields" | grep -qx -- "$row" ||
    err "docs/TUNING.md documents ServiceOptions::$row, which $options_header does not declare"
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK ($(echo $docs | wc -w) files checked)"
