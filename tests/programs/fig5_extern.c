/* Figure 5 join with an external target: `get` may call the modelled
 * external `malloc` (the fresh heap block comes back) or the defined
 * `pool` (the address of `buf` comes back), so `q` possibly points to
 * either. */
void *malloc(int);
int buf;
void *pool(int n) { return &buf; }
int main(void) {
    void *(*get)(int);
    int *q;
    int sel;
    get = malloc;
    if (sel) { get = pool; }
    q = get(4);
    return *q;
}
