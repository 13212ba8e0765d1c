/* The rows of a word-vector file (format in vectors.py), parsed where every
 * value is exactly what Python's float() reads. vectors_parse stops at the
 * first line that is not one of these plain rows; the Python reader, which
 * names every error, reads that line, and the parser resumes on the next:
 *   - a row is a word of printable ASCII (0x21-0x7e), then dim values, each
 *     after one or more ' ' or '\t'; a line ends in '\n', and a line of only
 *     ' ' and '\t' is blank;
 *   - a value is [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? with at most 19
 *     significant digits m and decimal exponent q. If m <= 2^53 and
 *     |q| <= 22, one IEEE multiply or divide of two exact doubles rounds
 *     m * 10^q correctly (Clinger, 1990, "How to read floating point numbers
 *     accurately"); else the Eisel-Lemire step (Lemire, 2021, "Number parsing
 *     at a gigabyte per second") does, or declines the value.
 * No strtod: C does not require it to round correctly. */
#include <float.h>
#include <stdint.h>
#include <string.h>

/* the one multiply or divide must round in double, not in a wider type */
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double arithmetic is evaluated in a wider type"
#endif

static const double POW10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int is_sep(unsigned char c) { return c == ' ' || c == '\t'; }
static int is_digit(unsigned char c) { return c >= '0' && c <= '9'; }

/* The bits of the double nearest m * 10^q for m > 0: m times 5^q truncated
 * to 128 bits (powers, for q in [-342, 308], high word first), as
 * fast_float's compute_float for binary64. Returns 0, declining, where the
 * truncated bits leave the rounding undecided, near a halfway point where
 * no tie is exact, and for a subnormal or overflowing result. */
static int eisel_lemire(uint64_t m, int64_t q, const uint64_t *powers, uint64_t *bits)
{
    if (q < -342 || q > 308)
        return 0;
    const uint64_t *power = powers + 2 * (q + 342);
    int zeros = __builtin_clzll(m);
    m <<= zeros;
    unsigned __int128 product = (unsigned __int128)m * power[0];
    uint64_t high = (uint64_t)(product >> 64), low = (uint64_t)product;
    if ((high & 0x1ff) == 0x1ff) {  /* the 55 bits kept may take a carry */
        uint64_t more = (uint64_t)(((unsigned __int128)m * power[1]) >> 64);
        low += more;
        high += low < more;
    }
    if (low == UINT64_MAX)
        return 0;  /* the truncated bits could still carry: undecided */
    int upper = (int)(high >> 63), shift = upper + 9;
    uint64_t mantissa = high >> shift;  /* 54 bits: the result and a round bit */
    /* the biased exponent; 217706 / 2^16 is log2(10) to within the range */
    int64_t exponent = ((217706 * q) >> 16) + 63 + upper - zeros + 1023;
    if (exponent <= 0)
        return 0;  /* subnormal */
    if (low <= 1 && (mantissa & 3) == 1 && (mantissa << shift) == high) {
        if (q < -4 || q > 23)
            return 0;  /* near a halfway point, where no tie is exact */
        mantissa &= ~UINT64_C(1);  /* an exact tie: round to even */
    }
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    if (mantissa >> 53) {  /* rounded up to the next power of two */
        mantissa >>= 1;
        exponent++;
    }
    if (exponent >= 0x7ff)
        return 0;  /* overflows */
    *bits = (mantissa & ~(UINT64_C(1) << 52)) | (uint64_t)exponent << 52;
    return 1;
}

/* Reads the value at *at into *out and moves *at past it; 0 declines it. */
static int parse_value(const unsigned char **at, const uint64_t *powers, double *out)
{
    const unsigned char *p = *at;
    int negative = *p == '-';
    p += (*p == '-') | (*p == '+');
    const unsigned char *first = p;
    uint64_t m = 0;
    int64_t digits = 0, fraction = 0;
    for (; is_digit(*p); p++, digits++)
        m = m * 10 + (*p - '0');
    if (*p == '.')
        for (p++; is_digit(*p); p++, digits++, fraction++)
            m = m * 10 + (*p - '0');
    if (digits == 0)
        return 0;
    /* leading zeros are not significant; counted off here, not in the loop */
    for (const unsigned char *z = first; digits > 19 && (*z == '0' || *z == '.'); z++)
        digits -= *z == '0';
    if (digits > 19)
        return 0;  /* m may have wrapped */
    int64_t q = 0;
    if (*p == 'e' || *p == 'E') {
        p++;
        int minus = *p == '-';
        p += (*p == '-') | (*p == '+');
        if (!is_digit(*p))
            return 0;
        for (; is_digit(*p); p++)
            q = q < 100000 ? q * 10 + (*p - '0') : q;
        if (q >= 100000)
            return 0;  /* saturated: the leading zeros uncounted may be as many */
        q = minus ? -q : q;
    }
    q = m ? q - fraction : 0;  /* zero at any exponent is zero */
    uint64_t bits;
    if (m <= (UINT64_C(1) << 53) && q >= -22 && q <= 22) {
        double v = q < 0 ? (double)m / POW10[-q] : (double)m * POW10[q];
        memcpy(&bits, &v, sizeof bits);
    } else if (!eisel_lemire(m, q, powers, &bits)) {
        return 0;
    }
    /* the value is >= 0, so setting the sign bit negates it with no branch to
     * mispredict on random signs */
    bits |= (uint64_t)negative << 63;
    memcpy(out, &bits, sizeof bits);
    *at = p;
    return 1;
}

/* Parses the lines of text[0:size), which ends in '\n', into rows of
 * values (at most room of them, dim values each; powers as in eisel_lemire)
 * and the byte span of each row's word into spans (start, end). Returns the rows parsed; stop[0] is
 * the offset of the first line not parsed (size if none was declined) and
 * stop[1] the count of lines before it, blank ones included. */
int64_t vectors_parse(const uint64_t *powers, const char *text, int64_t size, int64_t dim,
                      int64_t room, double *values, int64_t *spans, int64_t *stop)
{
    const unsigned char *base = (const unsigned char *)text, *line = base;
    int64_t rows = 0, lines = 0;
    for (; line < base + size; lines++) {
        const unsigned char *p = line, *word, *word_end;
        while (is_sep(*p))
            p++;
        if (*p != '\n') {
            for (word = p; *p >= 0x21 && *p <= 0x7e; p++)
                ;
            word_end = p;
            if (p == word || !is_sep(*p) || rows == room)
                break;
            double *row = values + rows * dim;
            int64_t j = 0;
            for (; j < dim && is_sep(*p); j++) {
                while (is_sep(*p))
                    p++;
                if (!parse_value(&p, powers, &row[j]))
                    break;
            }
            while (j == dim && is_sep(*p))
                p++;
            if (j < dim || *p != '\n')
                break;
            spans[2 * rows] = word - base;
            spans[2 * rows + 1] = word_end - base;
            rows++;
        }
        line = p + 1;
    }
    stop[0] = line - base;
    stop[1] = lines;
    return rows;
}
