/**
 * @file
 * spawn: run one command, wait for it, and record what it cost.
 *
 *   spawn <stats-file> <program> [args...]
 *
 * Writes "<wall_s> <cpu_s> <peak_rss_kb>\n" to the stats file and exits
 * with the command's exit status (128 + signal if it was killed). CPU
 * time is user plus system; peak RSS is the command's own high-water
 * mark. run.py launches through this small process rather than forking
 * the command from Python, because the kernel carries the forking
 * process's RSS high-water mark into the child's, which would make the
 * interpreter's footprint the reported peak.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: spawn <stats-file> <program> [args...]\n");
        return 2;
    }
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("spawn: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::perror("spawn: exec");
        _exit(127);
    }
    int status = 0;
    struct rusage ru = {};
    if (wait4(pid, &status, 0, &ru) != pid) {
        std::perror("spawn: wait4");
        return 2;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const double cpu = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                           1e6;
    std::FILE *f = std::fopen(argv[1], "w");
    if (!f) {
        std::perror("spawn: stats file");
        return 2;
    }
    const bool written =
        std::fprintf(f, "%.9f %.6f %ld\n", wall, cpu, ru.ru_maxrss) > 0;
    if (std::fclose(f) != 0 || !written) {
        std::perror("spawn: stats file");
        return 2;
    }
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}
