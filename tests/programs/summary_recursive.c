/* Self-recursive pointer walker: `step` forms a singleton recursive
 * SCC in the conservative call graph; the invocation graph analyses
 * it through a recursive/approximate node pair iterated to a fixed
 * point, with `main` around the knot. The restore of the
 * saved cursor under `lim` keeps both possible targets live at exit. */
int g, lim;
void step(int **pp, int depth);
void step(int **pp, int depth) {
    int *t;
    t = *pp;
    if (depth) {
        *pp = &g;
        step(pp, depth - 1);
    }
    if (lim) { *pp = t; }
}
int main(void) {
    int *p;
    p = &lim;
    step(&p, 3);
    return *p;
}
