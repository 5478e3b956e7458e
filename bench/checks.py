"""Output checks for one op, read back from the files and text the CLI wrote.

Every check returns a list of failure reasons; an empty list is a pass.
Only the standard library is used: the outputs are read back as text,
independent of the numpy that wrote them.

Tolerances are relative to the scale of the values compared:

* spectrum split: max |im_eq + im_ne - im_full| <= SPLIT_RTOL * max |column|
* flux report: max |s_d + v_ss + 1| <= SPLIT_RTOL, and the loops summed
  back into a matrix match curl_flux within SPLIT_RTOL * max curl_flux
* cli_cold references: every sampled value within REF_RTOL * the largest
  magnitude of its column (or field) in the reference output
"""

import glob
import json
import os

SPLIT_RTOL = 1e-9
REF_RTOL = 1e-9
CSV_HEADER = "omega,re_full,im_full,im_eq,im_ne"
FLUX_FIELDS = ("t_rate", "curl_flux", "symmetric_part", "s_d", "v_ss",
               "populations")


def _flatten(value):
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    return [float(value)]


def read_csv(path):
    """(header, rows) of a numeric CSV; raises ValueError if unparsable."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("%s is empty" % os.path.basename(path))
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    width = len(lines[0].split(","))
    if any(len(r) != width for r in rows):
        raise ValueError("%s has ragged rows" % os.path.basename(path))
    return lines[0], rows


def _csv_files(out_dir):
    return sorted(glob.glob(os.path.join(out_dir, "*.csv")))


def check_spectrum_split(out_dir, split_computed):
    """Columns as documented; im_eq + im_ne = im_full when the split was
    computed, both split columns zero when it was not."""
    reasons = []
    for path in _csv_files(out_dir):
        name = os.path.basename(path)
        header, rows = read_csv(path)
        if header != CSV_HEADER:
            reasons.append("%s: header %r" % (name, header))
            continue
        if split_computed:
            scale = max((abs(x) for r in rows for x in r[2:]), default=0.0)
            err = max((abs(r[3] + r[4] - r[2]) for r in rows), default=0.0)
            if err > SPLIT_RTOL * scale:
                reasons.append("%s: split error %.3e > %.0e * %.3e"
                               % (name, err, SPLIT_RTOL, scale))
        elif any(r[3] != 0.0 or r[4] != 0.0 for r in rows):
            reasons.append("%s: split columns not zero" % name)
    return reasons


def check_rows(out_dir, expected):
    reasons = []
    for path in _csv_files(out_dir):
        rows = read_csv(path)[1]
        if len(rows) != expected:
            reasons.append("%s: %d rows, expected %d"
                           % (os.path.basename(path), len(rows), expected))
    return reasons


def check_files(out_dir, expected):
    found = len(_csv_files(out_dir))
    return [] if found == expected else [
        "%d csv files, expected %d" % (found, expected)]


def _flux_report(out_dir):
    paths = sorted(glob.glob(os.path.join(out_dir, "*_flux.json")))
    if len(paths) != 1:
        raise ValueError("expected one flux report, found %d" % len(paths))
    with open(paths[0]) as fh:
        return os.path.basename(paths[0]), json.load(fh)


def loop_count(out_dir):
    return len(_flux_report(out_dir)[1]["loops"])


def check_flux_report(out_dir):
    """s_d + v_ss = -1 and the loop weights reconstruct curl_flux."""
    name, report = _flux_report(out_dir)
    reasons = []
    sv = max(abs(a + b + 1.0) for a, b in zip(report["s_d"], report["v_ss"]))
    if sv > SPLIT_RTOL:
        reasons.append("%s: max |s_d + v_ss + 1| = %.3e" % (name, sv))
    index = {label: i for i, label in enumerate(report["states"])}
    c = report["curl_flux"]
    rebuilt = [[0.0] * len(c) for _ in c]
    for loop in report["loops"]:
        cycle = [index[label] for label in loop["cycle"]]
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            rebuilt[i][j] += loop["weight"]
    scale = max(_flatten(c), default=0.0)
    err = max(abs(a - b) for ra, rb in zip(rebuilt, c) for a, b in zip(ra, rb))
    if err > SPLIT_RTOL * scale:
        reasons.append("%s: loops miss curl_flux by %.3e (scale %.3e)"
                       % (name, err, scale))
    return reasons


def check_validate(stdout):
    return [] if "all checks passed" in stdout else [
        "validate did not report 'all checks passed'"]


def digest(command, out_dir, stdout):
    """Reference digest of one cli_cold command's outputs: sampled CSV
    rows with per-column scales, numeric flux-report fields, or the
    validate verdict."""
    if command == "validate":
        return {"passed": stdout.count(" PASS "),
                "all_passed": "all checks passed" in stdout}
    if command == "flux":
        name, report = _flux_report(out_dir)
        return {name: {k: _flatten(report[k]) for k in FLUX_FIELDS}}
    out = {}
    for path in _csv_files(out_dir):
        header, rows = read_csv(path)
        stride = max(1, len(rows) // 48)
        out[os.path.basename(path)] = {
            "header": header,
            "rows": len(rows),
            "scale": [max(abs(r[k]) for r in rows) for k in range(len(header.split(",")))],
            "sample": [[i] + list(rows[i]) for i in range(0, len(rows), stride)],
        }
    return out


def check_reference(command, out_dir, stdout, reference):
    """Compare one cli_cold command's outputs with the captured digest."""
    ref = reference[command]
    got = digest(command, out_dir, stdout)
    if command == "validate":
        return [] if got == ref else ["validate verdict %r, reference %r"
                                      % (got, ref)]
    reasons = []
    if sorted(got) != sorted(ref):
        return ["output files %s, reference %s" % (sorted(got), sorted(ref))]
    for name, want in ref.items():
        have = got[name]
        if command == "flux":
            for key, values in want.items():
                scale = max((abs(x) for x in values), default=0.0)
                err = max((abs(a - b) for a, b in zip(have[key], values)),
                          default=0.0)
                if len(have[key]) != len(values) or err > REF_RTOL * scale:
                    reasons.append("%s: %s differs by %.3e" % (name, key, err))
            continue
        if have["header"] != want["header"] or have["rows"] != want["rows"]:
            reasons.append("%s: shape differs from reference" % name)
            continue
        for row_have, row_want in zip(have["sample"], want["sample"]):
            for k, (a, b) in enumerate(zip(row_have[1:], row_want[1:])):
                if abs(a - b) > REF_RTOL * want["scale"][k]:
                    reasons.append("%s row %d col %d: %.17g vs reference %.17g"
                                   % (name, row_want[0], k, a, b))
                    break
    return reasons


def check_op(op, stdout, reference):
    """Run every check the op names; return the failure reasons."""
    out_dir = op["argv"][op["argv"].index("--out") + 1]
    reasons = []
    for name in op["checks"]:
        key, _, arg = name.partition(":")
        if key == "split":
            reasons += check_spectrum_split(out_dir, True)
        elif key == "full_only":
            reasons += check_spectrum_split(out_dir, False)
        elif key == "rows":
            reasons += check_rows(out_dir, int(arg))
        elif key == "files":
            reasons += check_files(out_dir, int(arg))
        elif key == "flux":
            reasons += check_flux_report(out_dir)
        elif key == "validate":
            reasons += check_validate(stdout)
        elif key == "reference":
            reasons += check_reference(op["argv"][0], out_dir, stdout, reference)
        else:
            raise ValueError("unknown check %r" % name)
    return reasons
