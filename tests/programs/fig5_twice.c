/* Figure 5 join where one function appears twice in the target list:
 * `*pp` reads `f1` or `f2`, and both may hold `ta`. `ta` is analysed
 * once for the call and the join sees its output once, beside `tb`'s. */
int a, b;
int *p;
void ta(void) { p = &a; }
void tb(void) { p = &b; }
int main(void) {
    void (*f1)(void);
    void (*f2)(void);
    void (**pp)(void);
    int sel;
    f1 = ta;
    f2 = ta;
    if (sel == 1) { f2 = tb; }
    pp = &f1;
    if (sel == 2) { pp = &f2; }
    (*pp)();
    return *p;
}
