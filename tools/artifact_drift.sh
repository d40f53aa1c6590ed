#!/usr/bin/env bash
# Artifact drift against a base commit.
#
# Usage: tools/artifact_drift.sh BASE [FLAG ...]
#
# Runs every subcommand at its defaults, in csv and in json, once from the
# working tree's src/ and once from the src/ of commit BASE (extracted with
# git archive), and compares the sha256 sums of every artifact except
# manifest.json, which records the output path.  FLAGs (for example
# --n 20000, or --config FILE for a larger ring oracle) are passed to
# every subcommand, except that oracle-compare, which refuses quench.n, is
# skipped in both trees when the FLAGs set it (for example --n 2000, or an
# INI file's [quench] n).  For each
# artifact that differs, tools/artifact_diff.py prints the largest absolute
# difference over its numeric cells, or "layout changed".  Exits 1 when an
# artifact differs and tfim_dqpt.__version__ (the manifest's
# artifact_version) is the same at both; a changed artifact must come with
# a version bump.  In every output directory of both trees, manifest.json's
# checksums must name exactly the other files there, each with its
# sha256sum; otherwise exit 1.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 BASE [FLAG ...]" >&2
    exit 2
fi
base=$1
shift
flags=("$@")
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base" src | tar -x -C "$work/base"

commands=(rate-function heatmap otoc spectra oracle-compare pulse-schedule)
# oracle-compare sizes its chain by oracle.n_oracle and exits 2 on quench.n
if PYTHONPATH="$root/src" python - ${flags[@]+"${flags[@]}"} <<'PY'
import sys
from tfim_dqpt import cli
try:
    cli.resolve_config(cli.build_parser().parse_args(["oracle-compare", *sys.argv[1:]]))
except cli.ConfigurationError as exc:
    sys.exit(not str(exc).startswith("quench.n:"))
sys.exit(1)
PY
then
    echo "artifact drift: the flags set quench.n; oracle-compare skipped" >&2
    commands=(rate-function heatmap otoc spectra pulse-schedule)
fi

# run SRC_DIR OUT_DIR: every subcommand and format; sums into OUT_DIR.sha256
run() {
    local src=$1 out=$2 command fmt code
    for command in "${commands[@]}"; do
        for fmt in csv json; do
            code=0
            PYTHONPATH="$src" python -m tfim_dqpt.cli "$command" --format "$fmt" \
                --out "$out/$command-$fmt" ${flags[@]+"${flags[@]}"} 2>/dev/null \
                || code=$?
            if [ "$code" -ne 0 ]; then
                echo "$command --format $fmt exited $code under $src" >&2
                exit 1
            fi
        done
    done
    (cd "$out" && find . -type f ! -name manifest.json | LC_ALL=C sort \
        | xargs sha256sum) > "$out.sha256"
    check_manifests "$out"
}

# check_manifests OUT_DIR: each output directory's manifest.json against the
# sha256sum of every other file in it
check_manifests() {
    local dir
    for dir in "$1"/*/; do
        if ! diff -u \
            <(python -c 'import json, sys
for name, digest in sorted(json.load(open(sys.argv[1]))["checksums"].items()):
    print(f"{digest}  {name}")' "$dir/manifest.json") \
            <(cd "$dir" && find . -type f ! -name manifest.json \
                | sed 's|^\./||' | LC_ALL=C sort | xargs -r sha256sum); then
            echo "manifest of $dir does not match its files" >&2
            exit 1
        fi
    done
}

version() {
    PYTHONPATH=$1 python -c "import tfim_dqpt; print(tfim_dqpt.__version__)"
}

run "$work/base/src" "$work/out-base"
run "$root/src" "$work/out-head"
old=$(version "$work/base/src")
new=$(version "$root/src")
files=$(wc -l < "$work/out-head.sha256")
if diff -u "$work/out-base.sha256" "$work/out-head.sha256"; then
    echo "artifact drift: none; $files artifacts identical to $base" \
         "(artifact_version $old -> $new)"
    exit 0
fi
# the artifacts of the working tree whose sum differs from BASE's
changed=$(awk 'NR == FNR { sum[$2] = $1; next } sum[$2] != $1 { print $2 }' \
    "$work/out-base.sha256" "$work/out-head.sha256")
# shellcheck disable=SC2086  # artifact paths hold no spaces
python "$root/tools/artifact_diff.py" "$work/out-base" "$work/out-head" $changed
if [ "$old" = "$new" ]; then
    echo "artifact drift: artifacts differ from $base," \
         "but artifact_version is still $new" >&2
    exit 1
else
    echo "artifact drift: artifacts differ from $base;" \
         "artifact_version $old -> $new"
fi
