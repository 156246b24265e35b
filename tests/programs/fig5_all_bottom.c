/* Figure 5 join where every target is bottom: both functions `fp` may
 * call end the program, so nothing after the call is reachable and
 * `main` has no exit set. */
void exit(int);
void abort(void);
int g;
int *p;
void die_exit(void) { exit(1); }
void die_abort(void) { p = &g; abort(); }
int main(void) {
    void (*fp)(void);
    int sel;
    fp = die_exit;
    if (sel) { fp = die_abort; }
    p = &g;
    fp();
    p = 0;
    return 0;
}
