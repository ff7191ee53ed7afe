#!/usr/bin/env bash
# Docs gate (run from anywhere; CI's docs job runs it on every push):
#   1. every relative markdown link in README.md and docs/*.md must resolve
#      to an existing file (anchors are stripped; http(s) links skipped);
#   2. every HTTP route registered in src/server/json_api.cc must appear in
#      docs/HTTP_API.md, so new endpoints cannot ship undocumented;
#   3. every metric family name ("cpd_..." string literal in src/**/*.cc)
#      must appear in the docs/OBSERVABILITY.md catalog, so new metrics
#      cannot ship undocumented; and every family in a catalog table row
#      must be such a literal, so deleted metrics cannot linger there;
#   4. every --flag spelled after cpd_train, cpd_serve, cpd_query,
#      cpd_ingest or cpd_worker in README.md or docs/*.md (up to the next
#      tool name, across backslash-continued lines) must be in that tool's
#      kKnownFlags, and every --flag inside a `code span` anywhere in those
#      files must be in some tool's kKnownFlags, so deleted or invented
#      flags cannot linger in the docs;
#   5. every quoted exposition line "# HELP cpd_<family> <text>" in
#      README.md or docs/*.md must have <text> as a "..." string literal
#      in src/**/*.cc, so sample scrapes quote the HELP text the server
#      actually emits.
# Exits non-zero listing every violation.

set -u
cd "$(dirname "$0")/.."

failures=0

# ----- 1. intra-repo markdown links -----
while IFS= read -r file; do
  dir=$(dirname "$file")
  # Extract (target) of [text](target), tolerating several links per line.
  grep -oE '\]\([^)]+\)' "$file" | sed -e 's/^](//' -e 's/)$//' |
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"            # Strip the anchor.
    [ -z "$path" ] && continue      # Pure same-file anchor.
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $file -> $target"
      exit 1                        # Subshell: flag via exit status.
    fi
  done || failures=1
done < <(ls README.md docs/*.md 2>/dev/null)

# ----- 2. route coverage in docs/HTTP_API.md -----
api_doc=docs/HTTP_API.md
if [ ! -f "$api_doc" ]; then
  echo "MISSING: $api_doc"
  failures=1
else
  # Route patterns are the second string literal of server->Handle(...).
  routes=$(grep -A1 -E 'server->Handle\(' src/server/json_api.cc |
           grep -oE '"/[^"]*"' | tr -d '"' | sort -u)
  if [ -z "$routes" ]; then
    echo "ERROR: no routes extracted from src/server/json_api.cc" \
         "(did the registration idiom change?)"
    failures=1
  fi
  for route in $routes; do
    if ! grep -qF "$route" "$api_doc"; then
      echo "UNDOCUMENTED ROUTE: $route (registered in" \
           "src/server/json_api.cc, absent from $api_doc)"
      failures=1
    fi
  done
fi

# ----- 3. metric-family coverage in docs/OBSERVABILITY.md -----
obs_doc=docs/OBSERVABILITY.md
if [ ! -f "$obs_doc" ]; then
  echo "MISSING: $obs_doc"
  failures=1
else
  # Family names are string literals at their registration / exposition
  # sites (.cc only; headers mention names in prose comments).
  metrics=$(grep -rhoE '"cpd_[a-z0-9_]+"' --include='*.cc' src |
            tr -d '"' | sort -u)
  if [ -z "$metrics" ]; then
    echo "ERROR: no metric families extracted from src/**/*.cc" \
         "(did the registration idiom change?)"
    failures=1
  fi
  for metric in $metrics; do
    if ! grep -qF "$metric" "$obs_doc"; then
      echo "UNDOCUMENTED METRIC: $metric (registered in src, absent from" \
           "$obs_doc)"
      failures=1
    fi
  done
  # Catalog rows are table lines whose first cell is a `cpd_...` family.
  catalog=$(grep -oE '^\| `cpd_[a-z0-9_]+`' "$obs_doc" |
            sed -e 's/^| `//' -e 's/`$//' | sort -u)
  if [ -z "$catalog" ]; then
    echo "ERROR: no catalog rows extracted from $obs_doc" \
         "(did the table layout change?)"
    failures=1
  fi
  for family in $catalog; do
    if ! printf '%s\n' "$metrics" | grep -qxF "$family"; then
      echo "STALE METRIC: $family (in the $obs_doc catalog, not a" \
           "\"$family\" literal in src/**/*.cc)"
      failures=1
    fi
  done
fi

# ----- 4. CLI flags in the docs exist -----
cli_tools="cpd_train cpd_serve cpd_query cpd_ingest cpd_worker"
all_known=""
any_tool="(?<![a-z0-9_])($(echo "$cli_tools" | tr ' ' '|'))(?![a-z0-9_])"
for tool in $cli_tools; do
  src=tools/$tool.cc
  known=$(sed -n '/kKnownFlags = {/,/};/p' "$src" 2>/dev/null |
          grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)
  if [ -z "$known" ]; then
    echo "ERROR: no kKnownFlags extracted from $src" \
         "(did the flag-table idiom change?)"
    failures=1
    continue
  fi
  all_known="$all_known$known"$'\n'
  for doc in README.md docs/*.md; do
    # Join continued lines, then take each span from the tool name (as a
    # whole word) up to the next tool name or the end of the line.
    flags=$(sed -e ':a' -e '/\\$/N' -e 's/\\\n/ /' -e 'ta' "$doc" |
            grep -oP "(?<![a-z0-9_])$tool(?![a-z0-9_])((?!$any_tool).)*" |
            grep -oE -- '--[a-z0-9_]+' | sed 's/^--//' | sort -u)
    for flag in $flags; do
      if ! printf '%s\n' "$known" | grep -qxF "$flag"; then
        echo "UNKNOWN FLAG: $tool --$flag (in $doc, not in the" \
             "kKnownFlags of $src)"
        failures=1
      fi
    done
  done
done

# A code span need not name its tool ("`--deadline_ms`"): it must still be
# a flag some tool accepts.
for doc in README.md docs/*.md; do
  flags=$(grep -oE '`[^`]+`' "$doc" | grep -oP -- '(?<![A-Za-z0-9_-])--[a-z0-9_]+' |
          sed 's/^--//' | sort -u)
  for flag in $flags; do
    if ! printf '%s' "$all_known" | grep -qxF "$flag"; then
      echo "UNKNOWN FLAG: --$flag (in a code span in $doc, not in any" \
           "tool's kKnownFlags)"
      failures=1
    fi
  done
done

# ----- 5. quoted HELP text matches the code -----
for doc in README.md docs/*.md; do
  while IFS= read -r line; do
    family=$(printf '%s' "$line" | cut -d' ' -f3)
    help=$(printf '%s' "$line" | cut -d' ' -f4-)
    if ! grep -rqF --include='*.cc' -- "\"$help\"" src; then
      echo "STALE HELP: $family \"$help\" (in $doc, not a string literal" \
           "in src/**/*.cc)"
      failures=1
    fi
  done < <(grep -E '^# HELP cpd_[a-z0-9_]+ ' "$doc")
done

if [ "$failures" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK (links resolve, every route, metric and CLI flag" \
     "documented, quoted HELP text current)"
