/* Run one command and report its wall time and peak RSS.
 *
 *   spawn RESULT_FILE PROG ARGS...
 *
 * Writes "EXIT_CODE WALL_NS MAXRSS_KB" to RESULT_FILE.  Exit code is
 * 128 + signal for a killed child.
 *
 * Linux charges a child the high-water RSS of the memory image it replaced
 * at exec.  A child started straight from the benchmark (a Python process
 * holding numpy arrays) would report the benchmark's own size, so the
 * benchmark starts its children through this small process instead.
 *
 * If the benchmark dies, this process and the command die with it.
 */
#define _POSIX_C_SOURCE 200809L
#define _DEFAULT_SOURCE

#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static long long now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

int main(int argc, char** argv)
{
    if (argc < 3) {
        fprintf(stderr, "usage: %s RESULT_FILE PROG ARGS...\n", argv[0]);
        return 2;
    }
    pid_t parent = getppid();
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent)
        return 2;
    pid_t self = getpid();
    long long t0 = now_ns();
    pid_t pid = fork();
    if (pid < 0) {
        perror("fork");
        return 2;
    }
    if (pid == 0) {
        if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != self)
            _exit(127);
        execvp(argv[2], argv + 2);
        perror(argv[2]);
        _exit(127);
    }
    int status = 0;
    struct rusage usage;
    if (wait4(pid, &status, 0, &usage) != pid) {
        perror("wait4");
        return 2;
    }
    long long wall = now_ns() - t0;
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    FILE* out = fopen(argv[1], "w");
    if (!out) {
        perror(argv[1]);
        return 2;
    }
    fprintf(out, "%d %lld %ld\n", code, wall, usage.ru_maxrss);
    fclose(out);
    return 0;
}
