#!/usr/bin/env sh
# static_entry_points.sh — fails unless every given binary is linked
# statically, i.e. its program headers name no dynamic loader (INTERP).
#
# Registered as the ctest `static_entry_points` when the build links the
# apps with -static (apps/CMakeLists.txt); also runnable directly:
#
#   scripts/static_entry_points.sh <binary>...

set -eu

if [ "$#" -eq 0 ]; then
  echo "usage: $0 <binary>..." >&2
  exit 2
fi

STATUS=0
for BIN in "$@"; do
  if ! HEADERS=$(readelf -l "$BIN"); then
    echo "static_entry_points: FAIL — readelf cannot read $BIN" >&2
    exit 1
  fi
  if printf '%s\n' "$HEADERS" | grep -q INTERP; then
    echo "static_entry_points: FAIL — $BIN is dynamically linked:" >&2
    printf '%s\n' "$HEADERS" | grep -A 2 INTERP >&2
    STATUS=1
  else
    echo "static_entry_points: $BIN is static"
  fi
done
exit "$STATUS"
