#!/bin/sh
# Checks the one-definition rule for the AVX2 translation unit
# (src/core/kernel_avx2.cc). The linker may keep any single copy of an
# inline function or template, so a weak (W/V) or unique (u) symbol defined
# in that -mavx2 object could end up serving baseline callers and fault on
# a CPU without AVX2. Usage: check_avx2_odr.sh <system-processor> <object>...
# Exit 0 when no object defines such a symbol, 1 listing them, 77 (ctest
# SKIP) when nm is not installed or the build is not x86.
set -u

arch="${1:-}"
[ $# -gt 0 ] && shift
case "$arch" in
  *x86_64* | *AMD64* | *amd64* | *i686*) ;;
  *)
    echo "check_avx2_odr: no AVX2 unit on '$arch' builds; skipping" >&2
    exit 77
    ;;
esac
if ! command -v nm >/dev/null 2>&1; then
  echo "check_avx2_odr: nm not installed; skipping" >&2
  exit 77
fi

status=0
for object in "$@"; do
  if ! symbols=$(nm --defined-only -C "$object"); then
    echo "check_avx2_odr: nm failed on $object" >&2
    exit 2
  fi
  weak=$(printf '%s\n' "$symbols" | awk '$2 ~ /^[WVu]$/')
  if [ -n "$weak" ]; then
    echo "check_avx2_odr: $object defines weak or unique symbols:" >&2
    printf '%s\n' "$weak" >&2
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "check_avx2_odr: keep std:: templates and inline functions out of" \
       "kernel_avx2.cc (builtins, plain loops, raw pointers)" >&2
fi
exit "$status"
