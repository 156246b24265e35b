/* Allocation sites under heap_sites: the site in `mk` is first reached
   by the second call from main, after `first` was mapped. `peek` reads
   it later through a fresh pointer to the same site; main's `h` is
   invisible there, so the site's contents reach `peek` only because
   every allocation site is visible to every callee. */
int x;

int **mk(void) { return (int **) malloc(sizeof(int *)); }

void first(void) { }

int *peek(void) {
    int **t;
    t = mk();
    return *t;
}

int main(void) {
    int **h;
    int *r;
    first();
    h = mk();
    *h = &x;
    r = peek();
    return 0;
}
