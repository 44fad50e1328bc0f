"""Compile-and-run helper for the optional end-to-end test tier."""

import ctypes
import os
import subprocess

import numpy as np

_MAIN_TEMPLATE = """\
#include "{stem}.h"
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {{
    if (argc != 4) return 2;
    int num_points = atoi(argv[1]);
    double* vals = malloc((size_t)num_points * {n_slots} * sizeof(double));
    double* out = malloc((size_t)num_points * {out_stride} * sizeof(double));
    FILE* fin = fopen(argv[2], "rb");
    if (!fin) return 3;
    if (fread(vals, sizeof(double), (size_t)num_points * {n_slots}, fin)
            != (size_t)num_points * {n_slots}) return 4;
    fclose(fin);
    {driver}(vals, num_points, out);
    FILE* fout = fopen(argv[3], "wb");
    if (!fout) return 5;
    fwrite(out, sizeof(double), (size_t)num_points * {out_stride}, fout);
    fclose(fout);
    free(vals);
    free(out);
    return 0;
}}
"""

DRIVERS = {"function": "compute", "gradient": "compute_grad", "hessian": "compute_hess"}


def write_artifact(artifact, directory, stem):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{stem}.h"), "w") as fh:
        fh.write(artifact.header)
    paths = []
    for filename, text in artifact.sources:
        path = os.path.join(directory, filename)
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def compile_and_run(cc, artifact, directory, stem, mode, points, out_stride,
                    extra_flags=()):
    """Compile the artifact plus a tiny I/O harness and evaluate `points`."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    num_points, n_slots = points.shape
    sources = write_artifact(artifact, directory, stem)
    main_path = os.path.join(directory, "main.c")
    with open(main_path, "w") as fh:
        fh.write(_MAIN_TEMPLATE.format(stem=stem, n_slots=n_slots,
                                       out_stride=out_stride, driver=DRIVERS[mode]))
    exe = os.path.join(directory, "run")
    cmd = [cc, "-std=c99", "-O2", *extra_flags, "-o", exe, main_path, *sources,
           "-I", directory, "-lm"]
    subprocess.run(cmd, check=True, capture_output=True)
    in_path = os.path.join(directory, "points.bin")
    out_path = os.path.join(directory, "out.bin")
    points.tofile(in_path)
    subprocess.run([exe, str(num_points), in_path, out_path], check=True)
    return np.fromfile(out_path, dtype=np.float64).reshape(num_points, out_stride)


def compile_strict(cc, artifact, directory, stem):
    """Compile with maximum warnings as errors; returns compiler output."""
    sources = write_artifact(artifact, directory, stem)
    objs = []
    for src in sources:
        obj = src[:-2] + ".o"
        cmd = [cc, "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror",
               "-c", src, "-I", directory, "-o", obj]
        subprocess.run(cmd, check=True, capture_output=True)
        objs.append(obj)
    return objs


def run_drivers(cc, artifact, directory, stem, points, n, flags=("-O2",)):
    """Build the artifact as a shared library and run every driver it
    exports over `points`; returns {mode: (num_points, stride) array}."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    sources = write_artifact(artifact, directory, stem)
    lib_path = os.path.join(directory, f"lib{stem}.so")
    cmd = [cc, "-std=c99", *flags, "-shared", "-fPIC", "-o", lib_path, *sources,
           "-I", directory, "-lm"]
    subprocess.run(cmd, check=True, capture_output=True)
    lib = ctypes.CDLL(os.path.abspath(lib_path))
    double_p = ctypes.POINTER(ctypes.c_double)
    out = {}
    for mode, stride in (("function", 1), ("gradient", n), ("hessian", n * n)):
        if f" {DRIVERS[mode]}(" not in artifact.header:
            continue
        fn = getattr(lib, DRIVERS[mode])
        fn.argtypes = [double_p, ctypes.c_int, double_p]
        fn.restype = None
        got = np.empty((points.shape[0], stride))
        got.view(np.uint8).fill(0xAB)  # a slot the driver never writes shows
        fn(points.ctypes.data_as(double_p), points.shape[0], got.ctypes.data_as(double_p))
        out[mode] = got
    return out
