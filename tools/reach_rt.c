/* SanitizerCoverage runtime for tools/reach.sh, built by gcc so it is not instrumented itself.
 * At exit a process writes $REACH_OUT/<pid>: its executable, then "<pc - load base> <ran?>" per function. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>
extern char __executable_start;
static uint32_t *guards, *guards_end;
static const uintptr_t *pcs;
void __sanitizer_cov_trace_pc_guard_init(uint32_t *start, uint32_t *stop) {
    if (guards == start) return;
    guards = start, guards_end = stop;
    for (uint32_t *g = start; g < stop; g++) *g = 1;
}
void __sanitizer_cov_trace_pc_guard(uint32_t *guard) { *guard = 0; }
void __sanitizer_cov_pcs_init(const uintptr_t *beg, const uintptr_t *end) { pcs = beg, (void)end; }

__attribute__((destructor)) static void dump(void) {
    char exe[4096], path[4096];
    const char *dir = getenv("REACH_OUT");
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *f = dir && pcs && n > 0 && snprintf(path, sizeof path, "%s/%d", dir, (int)getpid()) > 0 ? fopen(path, "w") : NULL;
    if (!f) return;
    fprintf(f, "%.*s\n", (int)n, exe);
    for (uint32_t *g = guards; g < guards_end; g++)
        fprintf(f, "%lx %d\n", (unsigned long)(pcs[2 * (g - guards)] - (uintptr_t)&__executable_start), !*g);
    fclose(f);
}
