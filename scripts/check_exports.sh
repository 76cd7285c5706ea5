#!/usr/bin/env bash
# Lists the library's exports that no non-test code calls, and fails on
# any that has no stated reason to stay exported.
#
# An export is a `val` in lib/*/*.mli, named `Module.name` (a nested
# signature gives `Module.Sub.name`).  Values in a `module For_testing`
# signature are test hooks, checked apart (below).  An export counts as
# called when a non-test source file under lib/, bin/, bench/ (bench/e2e
# included) or examples/, other than the module's own implementation,
# names it qualified (`Geometry.Pointset.x`, `Pointset.x`), through a
# `module P = Geometry.Pointset` alias, or as a bare name under an
# `open`, `let open` or `Pointset.( ... )` of its module.  Comments and
# string literals do not count.  Names under an `open` are matched as
# words, so the check can miss an uncalled export but never flags a
# called one.
#
# Each For_testing value must be reached from test/ (as
# `For_testing.name`); one no test calls is dead and fails the check.
#
# An uncalled export passes when PAPER_MAP.md cites it in backticks
# (`Module.name`, `Module.a/b`, or a bare `name` after a backticked
# module on its line or under a section heading that names its
# `lib/.../file.ml`) or when scripts/exports-allowlist.txt lists it
# as `Module.name  reason` (`Module.Sub.*` covers a whole nested
# signature).  An allowlist line that names no export, or gives no
# reason, fails too.
#
# Usage: scripts/check_exports.sh           check (exit 1 on failure)
#        scripts/check_exports.sh --list    also print every uncalled
#                                           export and why it passes
set -euo pipefail

cd "$(dirname "$0")/.."

list=0
[ "${1:-}" = "--list" ] && list=1

allowlist=scripts/exports-allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Removes comments, string literals and character literals from a line.
# `depth` (comment nesting) and `instr` (1 inside "...", 2 inside {|...|})
# carry across lines; reset them per file.
strip='
function strip(s,    out, i, n, c, c2, j) {
  out = ""; n = length(s); i = 1
  while (i <= n) {
    c = substr(s, i, 1); c2 = substr(s, i, 2)
    if (instr == 1) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (instr == 2) {
      if (c2 == "|}") { instr = 0; i += 2; continue }
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
    if (c == "\"") { instr = 1; out = out " "; i++; continue }
    if (c2 == "{|") { instr = 2; out = out " "; i += 2; continue }
    if (depth > 0) { i++; continue }
    if (c == "\047") {
      if (substr(s, i + 2, 1) == "\047") { out = out " "; i += 3; continue }
      if (substr(s, i + 1, 1) == "\\") {
        j = index(substr(s, i + 2), "\047")
        if (j > 0) { out = out " "; i += j + 2; continue }
      }
    }
    out = out c; i++
  }
  return out
}
function module_of(path,    b) {
  b = path; sub(/.*\//, "", b); sub(/\.mli?$/, "", b)
  return toupper(substr(b, 1, 1)) substr(b, 2)
}
'

# 1. Exports: Module.name (or Module.Sub.name); For_testing values go to
# a list of their own.
awk -v hooks="$tmp/hooks" "$strip"'
FNR == 1 { depth = 0; instr = 0; sub_ = ""; mod = module_of(FILENAME) }
{
  line = strip($0)
  if (match(line, /^[ \t]*module +[A-Z][A-Za-z0-9_]* *: *sig/)) {
    s = substr(line, RSTART, RLENGTH); sub(/^[ \t]*module +/, "", s); sub(/ *:.*/, "", s)
    sub_ = s; next
  }
  if (line ~ /^[ \t]*end/) { sub_ = ""; next }
  if (match(line, /^[ \t]*val +[a-z_][A-Za-z0-9_\047]*/)) {
    s = substr(line, RSTART, RLENGTH); sub(/^[ \t]*val +/, "", s)
    if (sub_ == "For_testing") { print mod "." s > hooks; next }
    print (sub_ == "" ? mod "." s : mod "." sub_ "." s)
  }
}' lib/*/*.mli | sort -u > "$tmp/exports"

# 2. Uses: every Module.name (and Module.Sub.name) that a non-test file
# other than the module's own names, aliases and opens resolved.
find lib bin bench examples -name '*.ml' -not -path '*/_build/*' | sort > "$tmp/files"
awk "$strip"'
function flush(    m, w) {
  for (m in opened)
    if (m != self) for (w in words) print m "." w
  for (m in opened) delete opened[m]
  for (w in words) delete words[w]
  for (m in alias) delete alias[m]
}
function resolve(m) { return (m in alias) ? alias[m] : m }
FNR == 1 { if (NR > 1) flush(); depth = 0; instr = 0; self = module_of(FILENAME) }
{
  line = strip($0)
  rest = line
  while (match(rest, /module +[A-Z][A-Za-z0-9_]* *= *[A-Z][A-Za-z0-9_.]*/)) {
    s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
    x = s; sub(/^module +/, "", x); sub(/ *=.*/, "", x)
    p = s; sub(/.*= */, "", p)
    n = split(p, a, "."); t = resolve(a[n])
    if (t != x) alias[x] = t
  }
  rest = line
  while (match(rest, /(open!? +|let +open +)[A-Z][A-Za-z0-9_.]*|[A-Z][A-Za-z0-9_.]*\.[([{]/)) {
    s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
    sub(/^(open!? +|let +open +)/, "", s); sub(/\.[([{]$/, "", s)
    n = split(s, a, "."); opened[resolve(a[n])] = 1
  }
  rest = line
  while (match(rest, /[A-Z][A-Za-z0-9_\047]*(\.[A-Z][A-Za-z0-9_\047]*)*\.[a-z_][A-Za-z0-9_\047]*/)) {
    s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
    n = split(s, a, ".")
    a[1] = resolve(a[1])
    if (a[n - 1] != self) print a[n - 1] "." a[n]
    if (n >= 3 && a[n - 2] != self) print a[n - 2] "." a[n - 1] "." a[n]
  }
  rest = line
  while (match(rest, /[a-z_][A-Za-z0-9_\047]*/)) {
    words[substr(rest, RSTART, RLENGTH)] = 1; rest = substr(rest, RSTART + RLENGTH)
  }
}
END { flush() }' $(cat "$tmp/files") | sort -u > "$tmp/uses"

# 3. Names PAPER_MAP.md cites in backticks.  A bare `name` belongs to the
# last module cited before it on its line, or else to the module of the
# `lib/.../file.ml` its section heading points at.
awk '
/^#/ {
  section = ""
  if (match($0, /`lib\/[a-z_]+\/[a-z0-9_]+\.ml`/)) {
    f = substr($0, RSTART + 1, RLENGTH - 2); sub(/.*\//, "", f); sub(/\.ml$/, "", f)
    section = toupper(substr(f, 1, 1)) substr(f, 2)
  }
  next
}
{
  ctx = section; rest = $0
  while (match(rest, /`[^`]*`/)) {
    s = substr(rest, RSTART + 1, RLENGTH - 2); rest = substr(rest, RSTART + RLENGTH)
    if (s ~ /^[a-z_][A-Za-z0-9_\047]*$/) { if (ctx != "") print ctx "." s; continue }
    if (s ~ /^[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*$/) {
      n = split(s, a, "."); ctx = a[n]; continue
    }
    t = s
    while (match(t, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_\047]*(\/[a-z_][A-Za-z0-9_\047]*)*/)) {
      p = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
      k = split(p, names, "/")
      n = split(names[1], a, ".")
      ctx = a[n - 1]; print ctx "." a[n]
      for (i = 2; i <= k; i++) print ctx "." names[i]
    }
  }
}' PAPER_MAP.md | sort -u > "$tmp/paper"

# 4. The allowlist: every line needs a reason and must match an export.
status=0
: > "$tmp/allow"
if [ -f "$allowlist" ]; then
  while read -r name reason; do
    case "$name" in '' | '#'*) continue ;; esac
    if [ -z "$reason" ]; then
      echo "allowlist: $name has no reason" >&2; status=1; continue
    fi
    case "$name" in
      *'.*') prefix=${name%\*}
        grep -q "^${prefix//./\\.}" "$tmp/exports" ||
          { echo "allowlist: $name matches no export" >&2; status=1; } ;;
      *) grep -qxF "$name" "$tmp/exports" ||
          { echo "allowlist: $name is not an export" >&2; status=1; } ;;
    esac
    printf '%s\t%s\n' "$name" "$reason" >> "$tmp/allow"
  done < "$allowlist"
fi

# 5. Every uncalled export needs a citation or an allowlist line.
comm -23 "$tmp/exports" "$tmp/uses" > "$tmp/uncalled"
total=$(wc -l < "$tmp/exports")
unlisted=0
while read -r name; do
  why=""
  if grep -qxF "$name" "$tmp/paper"; then
    why="cited in PAPER_MAP.md"
  else
    while IFS=$'\t' read -r entry reason; do
      case "$entry" in
        *'.*') [ "${name#"${entry%\*}"}" != "$name" ] && { why=$reason; break; } ;;
        *) [ "$entry" = "$name" ] && { why=$reason; break; } ;;
      esac
    done < "$tmp/allow"
  fi
  if [ -z "$why" ]; then
    echo "export with no non-test caller: $name" >&2; unlisted=$((unlisted + 1)); status=1
  elif [ $list = 1 ]; then
    printf '%-44s %s\n' "$name" "$why"
  fi
done < "$tmp/uncalled"

# 6. A test hook no test reaches is dead code.
while read -r hook; do
  grep -qE "For_testing\.${hook#*.}\b" test/*.ml ||
    { echo "For_testing value no test calls: $hook" >&2; status=1; }
done < <(sort -u "$tmp/hooks" 2>/dev/null)

echo "exports: $total checked, $(wc -l < "$tmp/uncalled") without a non-test caller, $unlisted unlisted"
if [ $unlisted -gt 0 ]; then
  echo "Give each a caller outside test/, cite it in PAPER_MAP.md, or add it to" >&2
  echo "$allowlist with its reason (HACKING.md, \"Adding an export\")." >&2
fi
exit $status
