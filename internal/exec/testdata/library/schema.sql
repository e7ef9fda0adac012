CREATE TABLE publishers (
    publisher_id INT PRIMARY KEY,
    name TEXT SYNONYMS ('imprint', 'press'),
    city TEXT,
    founded INT
) SYNONYMS ('publisher');

CREATE TABLE authors (
    author_id INT PRIMARY KEY,
    name TEXT SYNONYMS ('writer'),
    country TEXT,
    born INT
) SYNONYMS ('author', 'writer');

CREATE TABLE books (
    book_id INT PRIMARY KEY,
    title TEXT,
    genre TEXT SYNONYMS ('category'),
    year INT SYNONYMS ('published'),
    pages INT,
    price FLOAT,
    publisher_id INT REFERENCES publishers(publisher_id)
) SYNONYMS ('book', 'volume');

CREATE TABLE book_authors (
    book_id INT REFERENCES books(book_id),
    author_id INT REFERENCES authors(author_id)
);

CREATE TABLE loans (
    loan_id INT PRIMARY KEY,
    book_id INT REFERENCES books(book_id),
    borrower TEXT SYNONYMS ('member', 'patron'),
    days INT,
    fine FLOAT
) SYNONYMS ('loan', 'checkout');
