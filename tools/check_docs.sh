#!/usr/bin/env bash
# Docs consistency checks, run by the CI `docs` job and runnable locally:
#
#   tools/check_docs.sh
#
# 1. Every relative link in every tracked *.md file must resolve to a file
#    or directory in the repo (http(s)/mailto links are not fetched).
# 2. Every metric name registered in src/ (via GetCounter/GetGauge/
#    GetHistogram with a literal name) must be documented in
#    docs/OPERATIONS.md.
# 3. Every RequestOp enumerator in src/server/wire.h must appear in
#    docs/WIRE_PROTOCOL.md — the wire spec may not silently lag the op set.
# 4. Every span name that a trace::ScopedSpan opens in src/ with a literal
#    must appear in docs/OPERATIONS.md.
#
# Exits non-zero with one line per violation.

set -u
cd "$(dirname "$0")/.."

errors=0
report() {
  echo "check_docs: $1" >&2
  errors=$((errors + 1))
}

# --- 1. Markdown link targets resolve -------------------------------------

md_files=$(git ls-files '*.md' 2>/dev/null || find . -name '*.md' -not -path './build*')
for md in $md_files; do
  dir=$(dirname "$md")
  # Inline links: [text](target). Targets with spaces/titles are not used in
  # this repo, so a simple non-paren span is enough.
  targets=$(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
  for target in $targets; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;  # external, not fetched
    esac
    path=${target%%#*}                          # drop #anchor
    [ -z "$path" ] && continue                  # same-file anchor
    if [ ! -e "$dir/$path" ]; then
      report "$md: broken link -> $target"
    fi
  done
done

# --- 2. Registered metric names are documented ----------------------------

ops_doc=docs/OPERATIONS.md
if [ ! -f "$ops_doc" ]; then
  report "missing $ops_doc"
else
  # Registration sites often wrap after the '(' — match across newlines (-z).
  metric_names=$(grep -rzoE 'Get(Counter|Gauge|Histogram)\(\s*"[a-z0-9_]+"' \
                   src --include='*.cc' --include='*.h' \
                 | tr '\0' '\n' | grep -oE '"[a-z0-9_]+"' | tr -d '"' \
                 | sort -u)
  if [ -z "$metric_names" ]; then
    report "found no registered metric names in src/ (extraction regex broken?)"
  fi
  for name in $metric_names; do
    if ! grep -q -- "$name" "$ops_doc"; then
      report "metric \`$name\` is registered in src/ but missing from $ops_doc"
    fi
  done
fi

# --- 3. Every RequestOp enumerator appears in the wire spec ---------------

wire_doc=docs/WIRE_PROTOCOL.md
wire_header=src/server/wire.h
if [ ! -f "$wire_doc" ]; then
  report "missing $wire_doc"
elif [ ! -f "$wire_header" ]; then
  report "missing $wire_header (RequestOp extraction source)"
else
  # The enum body runs from "enum class RequestOp {" to the first "};".
  request_ops=$(sed -n '/enum class RequestOp/,/};/p' "$wire_header" \
                | grep -oE 'k[A-Za-z0-9]+' | sort -u)
  if [ -z "$request_ops" ]; then
    report "found no RequestOp enumerators in $wire_header (extraction broken?)"
  fi
  for op in $request_ops; do
    if ! grep -q -- "$op" "$wire_doc"; then
      report "RequestOp::$op exists in $wire_header but is missing from $wire_doc"
    fi
  done
fi

# --- 4. Span names are documented ------------------------------------------

if [ -f "$ops_doc" ]; then
  # `trace::ScopedSpan span("name"` or a member's `span_{"name"`, possibly
  # wrapped after the bracket.
  span_names=$(grep -rzoE 'trace::ScopedSpan\s+[A-Za-z0-9_]+[({]\s*"[a-z0-9_.]+"' \
                 src --include='*.cc' --include='*.h' \
               | tr '\0' '\n' | grep -oE '"[a-z0-9_.]+"' | tr -d '"' \
               | sort -u)
  if [ -z "$span_names" ]; then
    report "found no span names in src/ (extraction regex broken?)"
  fi
  for name in $span_names; do
    if ! grep -qF -- "$name" "$ops_doc"; then
      report "span \`$name\` is opened in src/ but missing from $ops_doc"
    fi
  done
fi

if [ "$errors" -ne 0 ]; then
  echo "check_docs: $errors problem(s)" >&2
  exit 1
fi
echo "check_docs: OK ($(echo "$md_files" | wc -w) markdown files, $(echo "$metric_names" | wc -w) metrics, $(echo "$request_ops" | wc -w) wire ops, $(echo "$span_names" | wc -w) spans)"
