/* The rows of a word-vector file (format in vectors.py), parsed where every
 * value is exactly what Python's float() reads. vectors_parse takes only the
 * plainest rows and declines the first line that is not one, so the Python
 * reader that names every error handles it and the rest of the input:
 *   - a row is a word of printable ASCII (0x21-0x7e), then dim values, each
 *     after one or more ' ' or '\t'; a line ends in '\n', and a line of only
 *     ' ' and '\t' is blank;
 *   - a value is [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? with at most 19 digits,
 *     whose digits m (as an integer) are at most 2^53 and whose decimal
 *     exponent e is within +-22. Then m and 10^|e| are both exact doubles,
 *     and one IEEE multiply or divide rounds m * 10^e correctly (Clinger,
 *     1990, "How to read floating point numbers accurately"): the bits
 *     float() returns. No strtod: C does not require it to round correctly.
 * Any other byte, inf, nan, a longer mantissa (17-digit repr output), a
 * wrong field count or a row past the header's count is declined. */
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

/* Reads the value at *at into *out and moves *at past it; 0 declines it. */
static int parse_value(const unsigned char **at, double *out)
{
    const unsigned char *p = *at;
    int negative = *p == '-';
    p += (*p == '-') | (*p == '+');
    uint64_t m = 0;
    int digits = 0, fraction = 0;
    for (; is_digit(*p); p++, digits++)
        m = m * 10 + (*p - '0');
    if (*p == '.')
        for (p++; is_digit(*p); p++, digits++, fraction++)
            m = m * 10 + (*p - '0');
    if (digits == 0 || digits > 19 || m > (UINT64_C(1) << 53))
        return 0;  /* past 19 digits m may have wrapped, but it is not used */
    int e = 0;
    if (*p == 'e' || *p == 'E') {
        p++;
        int minus = *p == '-';
        p += (*p == '-') | (*p == '+');
        if (!is_digit(*p))
            return 0;
        for (; is_digit(*p); p++)
            e = e < 1000 ? e * 10 + (*p - '0') : e;  /* saturates, declined below */
        e = minus ? -e : e;
    }
    e -= fraction;
    if (e < -22 || e > 22)
        return 0;
    double v = e < 0 ? (double)m / POW10[-e] : (double)m * POW10[e];
    /* v >= 0, so setting the sign bit negates it; a branch on the sign
     * would mispredict often, as signs are often random */
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits |= (uint64_t)negative << 63;
    memcpy(out, &bits, sizeof bits);
    *at = p;
    return 1;
}

/* Parses the lines of text[0:size), which ends in '\n', into rows of
 * values (at most room of them, dim values each) and the byte span of each
 * row's word into spans (start, end). Returns the rows parsed; stop[0] is
 * the offset of the first line not parsed (size if none was declined) and
 * stop[1] the count of lines before it, blank ones included. */
int64_t vectors_parse(const char *text, int64_t size, int64_t dim, int64_t room,
                      double *values, int64_t *spans, int64_t *stop)
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
                if (!parse_value(&p, &row[j]))
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
