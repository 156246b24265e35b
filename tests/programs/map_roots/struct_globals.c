/* Struct-typed globals with pointer fields: the map process reaches
   them through projection leaves (gp.a, gp.b, garr[0].b, garr[1..].a),
   not through the global roots themselves. */
struct pair { int *a; int *b; int n; };
struct pair gp;
struct pair garr[4];
int x, y, z;

void set(void) {
    gp.a = &x;
    garr[0].b = &y;
    garr[2].a = &z;
}

int *get_a(void) { return gp.a; }

int *get_tail(void) { return garr[3].a; }

int main(void) {
    int *r;
    int *s;
    int *t;
    set();
    r = get_a();
    s = garr[0].b;
    t = get_tail();
    return 0;
}
