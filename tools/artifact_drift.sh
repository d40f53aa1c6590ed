#!/usr/bin/env bash
# Artifact drift against a base commit.
#
# Usage: tools/artifact_drift.sh BASE [FLAG ...]
#        tools/artifact_drift.sh BASE --corpus
#
# Runs every subcommand, in csv and in json, once from the working tree's
# src/ and once from the src/ of commit BASE (extracted once, with git
# archive), and compares the sha256 sums of every artifact except
# manifest.json, which records the output path.  FLAGs (for example
# --n 20000, or --config FILE for a larger ring oracle) are passed to
# every subcommand, except that oracle-compare, which refuses quench.n, is
# skipped in both trees when the FLAGs set it (for example --n 2000, or an
# INI file's [quench] n).  With --corpus, every configuration of
# tools/drift_corpus.ini (its flags, its INI text and the commands it
# runs) is checked in turn, and one line per configuration
# names it and its verdict; a configuration marked one_cpu is also run from
# the working tree under taskset -c 0, one usable CPU, so that nothing
# forks, and must write the same bytes as the working tree's run on every
# CPU.  For each artifact that differs,
# tools/artifact_diff.py prints the largest absolute difference over its
# numeric cells, or "layout changed".  A configuration fails when an
# artifact differs and tfim_dqpt.__version__ (the manifest's
# artifact_version) is the same at both, since a changed artifact must come
# with a version bump; when a command exits nonzero; or when, in an output
# directory of either tree, manifest.json's checksums do not name exactly
# the other files there, each with its sha256sum.  Exits 1 when any
# configuration fails.
set -euo pipefail

if [ $# -lt 1 ] || { [ "${2-}" = --corpus ] && [ $# -ne 2 ]; }; then
    echo "usage: $0 BASE [FLAG ...] | $0 BASE --corpus" >&2
    exit 2
fi
base=$1
shift
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base" src | tar -x -C "$work/base"

version() {
    PYTHONPATH=$1 python -c "import tfim_dqpt; print(tfim_dqpt.__version__)"
}
old=$(version "$work/base/src")
new=$(version "$root/src")

# run SRC_DIR OUT_DIR: every command and format, each under the command
# prefix `pin` (none by default); sums into OUT_DIR.sha256.  Each check
# returns on failure, so a corpus run goes on to the next configuration
pin=()
run() {
    local src=$1 out=$2 command fmt code
    for command in "${commands[@]}"; do
        for fmt in csv json; do
            code=0
            ${pin[@]+"${pin[@]}"} env PYTHONPATH="$src" python -m tfim_dqpt.cli \
                "$command" --format "$fmt" --out "$out/$command-$fmt" \
                ${flags[@]+"${flags[@]}"} 2>/dev/null || code=$?
            if [ "$code" -ne 0 ]; then
                echo "$command --format $fmt exited $code under $src" >&2
                return 1
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
                | sed 's|^\./||' | LC_ALL=C sort | xargs -r sha256sum) >&2; then
            echo "manifest of $dir does not match its files" >&2
            return 1
        fi
    done
}

# drift NAME [one_cpu]: run `commands` with `flags` in both trees into
# $work/cfg/NAME (and with one_cpu, the working tree's again on one CPU)
# and print one line, the verdict; return 1 when the configuration fails
drift() {
    local name=$1 one_cpu=${2-} out=$work/cfg/$1 files changed
    # oracle-compare sizes its chain by oracle.n_oracle and exits 2 on quench.n
    if [[ " ${commands[*]} " == *" oracle-compare "* ]] \
        && PYTHONPATH="$root/src" python - ${flags[@]+"${flags[@]}"} <<'PY'
import sys
from tfim_dqpt import cli
try:
    cli.resolve_config(cli.build_parser().parse_args(["oracle-compare", *sys.argv[1:]]))
except cli.ConfigurationError as exc:
    sys.exit(not str(exc).startswith("quench.n:"))
sys.exit(1)
PY
    then
        echo "$name: the flags set quench.n; oracle-compare skipped" >&2
        local kept=() command
        for command in "${commands[@]}"; do
            [ "$command" = oracle-compare ] || kept+=("$command")
        done
        commands=("${kept[@]}")
    fi
    mkdir -p "$out"
    if ! run "$work/base/src" "$out/base" || ! run "$root/src" "$out/head"; then
        echo "$name: FAILED, a command or a manifest check failed"
        return 1
    fi
    if [ "$one_cpu" = yes ]; then
        pin=(taskset -c 0)
        run "$root/src" "$out/one-cpu" || pin=(failed)
        if [ "${pin[0]}" = failed ] \
            || ! diff -u "$out/head.sha256" "$out/one-cpu.sha256" >&2; then
            pin=()
            echo "$name: FAILED, on one CPU the working tree writes other bytes"
            return 1
        fi
        pin=()
        name="$name (and on one CPU)"
    fi
    files=$(wc -l < "$out/head.sha256")
    if diff -u "$out/base.sha256" "$out/head.sha256" >&2; then
        echo "$name: no drift; $files artifacts identical to $base" \
             "(artifact_version $old -> $new)"
        return 0
    fi
    # the artifacts of the working tree whose sum differs from BASE's
    changed=$(awk 'NR == FNR { sum[$2] = $1; next } sum[$2] != $1 { print $2 }' \
        "$out/base.sha256" "$out/head.sha256")
    # shellcheck disable=SC2086  # artifact paths hold no spaces
    python "$root/tools/artifact_diff.py" "$out/base" "$out/head" $changed >&2
    if [ "$old" = "$new" ]; then
        echo "$name: FAILED, artifacts differ from $base," \
             "but artifact_version is still $new"
        return 1
    fi
    echo "$name: artifacts differ from $base; artifact_version $old -> $new"
}

all=(rate-function heatmap otoc spectra oracle-compare pulse-schedule)
if [ "${1-}" != --corpus ]; then
    commands=("${all[@]}")
    flags=("$@")
    drift flags
    exit
fi

# one line per configuration: its name, its commands and its flags (with
# --config and its INI file written under $work/ini), shell-quoted
mkdir "$work/ini"
listing=$(python - "$root/tools/drift_corpus.ini" "$work/ini" "${all[*]}" <<'PY'
import configparser, os, shlex, sys

corpus, ini_dir, every = sys.argv[1:]
parser = configparser.ConfigParser(interpolation=None)
with open(corpus, encoding="utf-8") as handle:
    parser.read_file(handle)
for name in parser.sections():
    entry = dict(parser.items(name))
    unknown = set(entry) - {"reason", "flags", "ini", "commands", "one_cpu"}
    if unknown or not entry.get("reason"):
        sys.exit(f"{corpus} [{name}]: unknown keys {sorted(unknown)} or no reason")
    flags = shlex.split(entry.get("flags", ""))
    if entry.get("ini"):
        path = os.path.join(ini_dir, f"{name}.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(entry["ini"] + "\n")
        flags += ["--config", path]
    commands = entry.get("commands", every).split()
    if not set(commands) <= set(every.split()):
        sys.exit(f"{corpus} [{name}]: unknown commands {commands}")
    one_cpu = entry.get("one_cpu", "no")
    if one_cpu not in ("yes", "no"):
        sys.exit(f"{corpus} [{name}]: one_cpu must be yes or no")
    print(shlex.join([name, " ".join(commands), one_cpu, *flags]))
PY
)
status=0
while IFS= read -r line; do
    [ -n "$line" ] || continue
    eval "entry=($line)"
    read -r -a commands <<< "${entry[1]}"
    flags=("${entry[@]:3}")
    drift "${entry[0]}" "${entry[2]}" || status=1
done <<< "$listing"
exit "$status"
