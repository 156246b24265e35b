/* Mutually recursive pair flipping a shared cursor between two
 * globals: `even` and `odd` are one two-member call-graph component
 * that the invocation graph resolves with a recursive fixed point;
 * the helper `park` below the knot is recursion-free. */
int a, b, n;
int *cur;
void odd(void);
void park(int *v) { cur = v; }
void even(void) { if (n) { n = n - 1; park(&a); odd(); } }
void odd(void)  { if (n) { n = n - 1; park(&b); even(); } }
int main(void) {
    n = 4;
    cur = &a;
    even();
    return *cur;
}
