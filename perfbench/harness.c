/* Timing harness for acorns-generated kernels.
 *
 * Linked with the emitted der.h / der_part*.c in one gcc invocation.  Build
 * with -DHAVE_FUNCTION, -DHAVE_GRADIENT and -DHAVE_HESSIAN for the drivers
 * the artifact exports.
 *
 *   drv POINTS_FILE NUM_POINTS N_SLOTS N_VARS OUT_DIR MODE:REPS...
 *
 * For each MODE:REPS argument the driver runs once untimed (warm-up), then
 * REPS times over the whole batch, each call timed with CLOCK_MONOTONIC.
 * It prints one line "MODE ns ns ..." per argument and writes the output of
 * the last call to OUT_DIR/out_MODE.bin for checking.
 */
#define _POSIX_C_SOURCE 199309L

#include "der.h"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef void (*driver_fn)(const double*, int, double*);

static long long now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static driver_fn lookup(const char* mode, int n_vars, long* stride)
{
#ifdef HAVE_FUNCTION
    if (strcmp(mode, "function") == 0) { *stride = 1; return compute; }
#endif
#ifdef HAVE_GRADIENT
    if (strcmp(mode, "gradient") == 0) { *stride = n_vars; return compute_grad; }
#endif
#ifdef HAVE_HESSIAN
    if (strcmp(mode, "hessian") == 0) { *stride = (long)n_vars * n_vars; return compute_hess; }
#endif
    (void)n_vars;
    (void)stride;
    return NULL;
}

int main(int argc, char** argv)
{
    if (argc < 7) {
        fprintf(stderr, "usage: %s POINTS NUM_POINTS N_SLOTS N_VARS OUT_DIR MODE:REPS...\n", argv[0]);
        return 2;
    }
    int num_points = atoi(argv[2]);
    int n_slots = atoi(argv[3]);
    int n_vars = atoi(argv[4]);
    const char* out_dir = argv[5];
    size_t n_in = (size_t)num_points * n_slots;
    double* vals = malloc(n_in * sizeof(double));
    double* out = malloc((size_t)num_points * n_vars * n_vars * sizeof(double) + sizeof(double));
    if (!vals || !out) return 3;
    FILE* fin = fopen(argv[1], "rb");
    if (!fin) return 4;
    if (fread(vals, sizeof(double), n_in, fin) != n_in) return 5;
    fclose(fin);

    for (int a = 6; a < argc; ++a) {
        char mode[32];
        int reps = 0;
        if (sscanf(argv[a], "%31[a-z]:%d", mode, &reps) != 2 || reps < 1) return 6;
        long stride = 0;
        driver_fn fn = lookup(mode, n_vars, &stride);
        if (!fn) {
            fprintf(stderr, "driver for mode %s not built\n", mode);
            return 7;
        }
        fn(vals, num_points, out);
        printf("%s", mode);
        for (int r = 0; r < reps; ++r) {
            long long t0 = now_ns();
            fn(vals, num_points, out);
            printf(" %lld", now_ns() - t0);
        }
        printf("\n");
        char path[4096];
        snprintf(path, sizeof path, "%s/out_%s.bin", out_dir, mode);
        FILE* fout = fopen(path, "wb");
        if (!fout) return 8;
        size_t n_out = (size_t)num_points * stride;
        if (fwrite(out, sizeof(double), n_out, fout) != n_out) return 9;
        fclose(fout);
    }
    free(vals);
    free(out);
    return 0;
}
