/* Figure 5 join with a target that never returns. At the first call
 * `fp` may reach `quit` (calls exit), `ret_a` or `ret_b`: only the two
 * that return feed the join, so `p` possibly points to `a` or `b` and
 * the caller's `p -> NULL` does not survive. At the second call `quit`
 * is the only other target, so `p` still definitely points to `a`. */
void exit(int);
int a, b;
int *p;
void quit(void) { p = &b; exit(1); }
void ret_a(void) { p = &a; }
void ret_b(void) { p = &b; }
int main(void) {
    void (*fp)(void);
    void (*fq)(void);
    int sel;
    fp = quit;
    if (sel == 1) { fp = ret_a; }
    if (sel == 2) { fp = ret_b; }
    fp();
    fq = quit;
    if (sel == 3) { fq = ret_a; }
    fq();
    return *p;
}
