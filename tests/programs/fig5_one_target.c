/* Figure 5 join over one target: the join is that target's output, so
 * the definite facts it makes stay definite (`p` definitely points to
 * `a`, `r` definitely to `b`). */
int a, b;
int *p;
int *set_p(int *v) { p = &a; return v; }
int main(void) {
    int *(*fp)(int *);
    int *r;
    fp = set_p;
    r = fp(&b);
    return *p + *r;
}
