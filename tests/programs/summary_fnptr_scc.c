/* A function-pointer-driven cycle: each ring member re-targets the
 * global pointer and calls through it, so the conservative call graph
 * (indirect sites resolve to every address-taken function) fuses the
 * ring into one SCC, while the points-to facts narrow each indirect
 * call to the targets the pointer can hold there and the invocation
 * graph closes the ring with recursive/approximate node pairs. */
int n;
int *slot;
int x, y;
void (*fp)(void);
void r0(void) { if (n) { n = n - 1; slot = &x; fp(); } }
void r1(void) { if (n) { n = n - 1; slot = &y; fp = r0; fp(); } }
void r2(void) { if (n) { n = n - 1; fp = r1; fp(); } }
int main(void) {
    n = 6;
    slot = &x;
    fp = r2;
    fp();
    return *slot;
}
