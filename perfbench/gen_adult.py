"""Seeded generator of Adult-shaped census CSVs.

Writes the 15 UCI census-income columns with Adult's categorical
cardinalities (workclass 8, education 16, marital-status 7, occupation
14, relationship 6, race 5, native-country 41), so the bundled ``adult``
schema preset encodes the kept rows to d = 6 + 97 = 103. About 7% of
rows carry the missing token ``?`` (the loader drops them), about a
third are Female, and the positive-label rate is lower for the Female
group, so a demographic-parity constraint binds.

The same (rows, seed) always gives the same bytes.

Usage: python3 perfbench/gen_adult.py ROWS SEED OUT.csv
"""

from __future__ import annotations

import sys

import numpy as np

COLUMNS = ["age", "workclass", "fnlwgt", "education", "education-num",
           "marital-status", "occupation", "relationship", "race", "sex",
           "capital-gain", "capital-loss", "hours-per-week",
           "native-country", "income"]

WORKCLASS = ["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay", "Never-worked"]
WORKCLASS_P = [0.70, 0.08, 0.035, 0.03, 0.065, 0.04, 0.005, 0.005]

# education-num is the position in this list plus one, as in Adult
EDUCATION = ["Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th",
             "11th", "12th", "HS-grad", "Some-college", "Assoc-voc",
             "Assoc-acdm", "Bachelors", "Masters", "Prof-school", "Doctorate"]
EDUCATION_P = [0.003, 0.006, 0.011, 0.02, 0.016, 0.028, 0.037, 0.013, 0.323,
               0.222, 0.042, 0.033, 0.164, 0.054, 0.017, 0.011]

MARITAL = ["Married-civ-spouse", "Divorced", "Never-married", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse"]
MARITAL_P = [0.46, 0.135, 0.33, 0.03, 0.03, 0.012, 0.003]

OCCUPATION = ["Tech-support", "Craft-repair", "Other-service", "Sales",
              "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
              "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
              "Transport-moving", "Priv-house-serv", "Protective-serv",
              "Armed-Forces"]
OCCUPATION_P = [0.03, 0.13, 0.105, 0.115, 0.13, 0.13, 0.045, 0.065, 0.12,
                0.03, 0.05, 0.006, 0.021, 0.023]
# log-odds shift of the positive label per occupation
OCCUPATION_EFFECT = [0.3, 0.0, -1.0, 0.1, 0.9, 0.8, -0.9, -0.5, -0.3, -0.6,
                     -0.2, -1.5, 0.2, 0.0]

RELATIONSHIP = ["Wife", "Own-child", "Husband", "Not-in-family",
                "Other-relative", "Unmarried"]

RACE = ["White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black"]
RACE_P = [0.855, 0.031, 0.01, 0.008, 0.096]

COUNTRIES = [
    "United-States", "Cambodia", "England", "Puerto-Rico", "Canada",
    "Germany", "Outlying-US(Guam-USVI-etc)", "India", "Japan", "Greece",
    "South", "China", "Cuba", "Iran", "Honduras", "Philippines", "Italy",
    "Poland", "Jamaica", "Vietnam", "Mexico", "Portugal", "Ireland",
    "France", "Dominican-Republic", "Laos", "Ecuador", "Taiwan", "Haiti",
    "Columbia", "Hungary", "Guatemala", "Nicaragua", "Scotland", "Thailand",
    "Yugoslavia", "El-Salvador", "Trinadad&Tobago", "Peru", "Hong",
    "Holand-Netherlands"]
COUNTRIES_P = [0.90] + [0.10 / 40] * 40

MISSING_FRAC = 0.074
FEMALE_FRAC = 1.0 / 3.0


def _pick(rng, names, p, n) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return np.asarray(names, dtype=object)[rng.choice(len(names), size=n, p=p / p.sum())]


def generate(rows: int, seed: int) -> str:
    """The CSV text (header plus ``rows`` data lines) for one seed."""
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    rng = np.random.default_rng(seed)
    n = rows
    female = rng.random(n) < FEMALE_FRAC
    age = np.clip(np.rint(rng.normal(38.6, 13.6, n)), 17, 90).astype(np.int64)
    workclass = _pick(rng, WORKCLASS, WORKCLASS_P, n)
    edu_idx = rng.choice(len(EDUCATION), size=n, p=np.asarray(EDUCATION_P) / sum(EDUCATION_P))
    edu_num = edu_idx + 1
    married_p = np.where(female, 0.25, 0.58)
    married = rng.random(n) < married_p
    other_marital = _pick(rng, MARITAL[1:], MARITAL_P[1:], n)
    marital = np.where(married, MARITAL[0], other_marital)
    occ_idx = rng.choice(len(OCCUPATION), size=n, p=np.asarray(OCCUPATION_P) / sum(OCCUPATION_P))
    occupation = np.asarray(OCCUPATION, dtype=object)[occ_idx]
    # married rows are Husband/Wife by sex; the rest spread over the others
    rel_other = _pick(rng, RELATIONSHIP[1:2] + RELATIONSHIP[3:],
                      [0.25, 0.45, 0.06, 0.24], n)
    relationship = np.where(married, np.where(female, "Wife", "Husband"), rel_other)
    race = _pick(rng, RACE, RACE_P, n)
    country = _pick(rng, COUNTRIES, COUNTRIES_P, n)
    fnlwgt = np.rint(np.exp(rng.normal(12.0, 0.55, n))).astype(np.int64)
    gain = np.where(rng.random(n) < 0.08,
                    np.rint(np.exp(rng.normal(8.3, 1.0, n))), 0).astype(np.int64)
    loss = np.where(rng.random(n) < 0.047,
                    np.rint(rng.normal(1870, 360, n)).clip(100, 4356), 0).astype(np.int64)
    hours = np.clip(np.rint(rng.normal(np.where(female, 36.4, 42.4), 12.0)),
                    1, 99).astype(np.int64)

    logit = (-2.6 + 0.33 * (edu_num - 10) + 0.03 * (age - 38)
             + 0.03 * (hours - 40) + 1.9 * married + 1.6 * (gain > 3000)
             + 0.6 * (loss > 0) - 0.6 * female
             + np.asarray(OCCUPATION_EFFECT)[occ_idx])
    positive = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    income = np.where(positive, ">50K", "<=50K")

    # missing cells sit where Adult has them: workclass+occupation or country
    missing = rng.random(n) < MISSING_FRAC
    in_country = rng.random(n) < 0.25
    workclass = np.where(missing & ~in_country, "?", workclass)
    occupation = np.where(missing & ~in_country, "?", occupation)
    country = np.where(missing & in_country, "?", country)

    sex = np.where(female, "Female", "Male")
    columns = [age, workclass, fnlwgt, np.asarray(EDUCATION, dtype=object)[edu_idx],
               edu_num, marital, occupation, relationship, race, sex, gain,
               loss, hours, country, income]
    cells = [c.astype(str).tolist() for c in columns]
    lines = [",".join(COLUMNS)]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write(path, rows: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(generate(rows, seed))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    write(sys.argv[3], int(sys.argv[1]), int(sys.argv[2]))
